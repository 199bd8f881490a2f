package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ifdk/internal/ct/fdk"
	"ifdk/internal/service"
	"ifdk/pkg/api"
	"ifdk/pkg/volume"
)

// round is everything measured between booting one stack and closing it: a
// run is made of rounds because a fresh stack is the only way to get both a
// second set-up sample and, with the result cache left on, more cold jobs of
// the same cost than one dataset has windows.
type round struct {
	setupS float64 // boot → warm jobs done: listeners up, datasets staged, pools filled
	wallS  float64 // the timed phase on the client clock
	cpuS   float64 // process user+sys CPU over the timed phase

	mallocs, allocBytes, gcPauseNS uint64 // runtime.MemStats deltas over the timed phase

	// Readings of the host probe, in seconds: before boot, after set-up and
	// around every segment of the timed phase.
	probeS []float64

	warm      []sample
	jobs      []sample
	exhausted bool // a client ran out of generated items before the time budget ended

	svc      api.Metrics // service counters when the timed phase ended
	reroutes int64
	retries  int64

	// Traced pass only.
	direct     []sample // cold items run through Manager.Submit → terminal event, no HTTP; only job is set
	streamMiBs float64  // late-attach /stream replay of a finished job
	hopS       float64  // submit RTT of a cached spec via the router − straight to its backend

	checks    int      // round-level correctness checks made (the reference volume)
	checkErrs []string // and those that failed
}

// roundOpts selects what a round does beyond set-up and the timed phase.
type roundOpts struct {
	budget    time.Duration // the timed phase stops starting jobs after this long
	probe     *hostProbe    // read before, between and after everything a round times
	tr        *tracer       // non-nil in the traced pass: every other job is traced
	direct    int           // withhold this many cold items from client 0 and run them without HTTP
	reference bool          // compare the first warm job's volume with fdk.Reconstruct
}

// probeReadings is how many times in a row the probe runs at each stop.
const probeReadings = 3

func (r *round) readHost(p *hostProbe) {
	for i := 0; i < probeReadings; i++ {
		r.probeS = append(r.probeS, p.run())
	}
}

func runRound(ctx context.Context, w workload, p plan, o roundOpts) (r round, err error) {
	r.readHost(o.probe)
	bootStart := time.Now()
	st, err := bootStack(w.fleet)
	if err != nil {
		return r, err
	}
	defer func() {
		if cerr := st.close(); err == nil {
			err = cerr
		}
		runtime.GC() // the next round starts from an empty heap, as a fresh process would
	}()

	// Set-up: every dataset's warm job on every daemon, straight to the
	// daemon so that each one stages the scan and fills its pools whatever
	// the router's hashing would have chosen.
	var refPrefix string
	for i, spec := range p.warm {
		for _, d := range st.daemons {
			drv := &driver{st: st, c: st.client(d.url)}
			r.warm = append(r.warm, drv.runJob(ctx, item{spec: spec, repeatOf: -1}, nil, nil))
		}
		if i == 0 {
			refPrefix = onlyDataset(st.daemons[0].m)
		}
	}
	r.setupS = time.Since(bootStart).Seconds()
	for _, s := range r.warm {
		if len(s.errs) > 0 {
			return r, fmt.Errorf("set-up failed: %s", strings.Join(s.errs, "; "))
		}
	}

	lists := p.lists
	var direct []item
	if o.direct > 0 {
		lists, direct = withhold(lists, o.direct)
	}

	// Timed phase: one closed-loop client per list, cut into segments with
	// readings of the host probe before the first, between any two and
	// after the last, while nothing else runs. A segment ends once every
	// client has finished the job it was in when the segment's time was up
	// (with no segment time set: its first job). Only the segments count
	// as the phase's wall and CPU time.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	perClient := make([][]sample, len(lists))
	drivers := make([]*driver, len(lists))
	for c := range lists {
		drivers[c] = &driver{st: st, c: st.client(st.base)}
	}
	var exhausted atomic.Bool
	r.readHost(o.probe)
	for budget := o.budget.Seconds(); r.wallS < budget && !exhausted.Load(); {
		cpu0, seg0, spent := cpuSeconds(), time.Now(), r.wallS
		var wg sync.WaitGroup
		for c, list := range lists {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// A client that runs out of items ends the phase for all:
				// the others idling on would be timed as if they worked.
				for !exhausted.Load() {
					i := len(perClient[c])
					var original *sample
					if list[i].repeatOf >= 0 {
						original = &perClient[c][list[i].repeatOf]
					}
					var tr *tracer
					if i%2 == 1 {
						tr = o.tr
					}
					perClient[c] = append(perClient[c], drivers[c].runJob(ctx, list[i], original, tr))
					if i+1 == len(list) {
						exhausted.Store(true)
					}
					if in := time.Since(seg0).Seconds(); in >= w.segment.Seconds() || spent+in >= budget {
						return
					}
				}
			}()
		}
		wg.Wait()
		r.wallS += time.Since(seg0).Seconds()
		r.cpuS += cpuSeconds() - cpu0
		r.readHost(o.probe)
	}
	r.exhausted = exhausted.Load()
	runtime.ReadMemStats(&after)
	r.mallocs = after.Mallocs - before.Mallocs
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	r.gcPauseNS = after.PauseTotalNs - before.PauseTotalNs
	for _, done := range perClient {
		r.jobs = append(r.jobs, done...)
	}

	if r.svc, err = st.client(st.base).Metrics(ctx); err != nil {
		return r, fmt.Errorf("reading /v1/metrics: %w", err)
	}
	if st.rt != nil {
		r.reroutes = st.rt.Reroutes()
	}
	r.retries = st.retries.Load()

	// The timed phase's garbage goes before the checks and probes allocate
	// on top of it, so that peak_rss_mb is the service's footprint and not
	// an accident of when the collector last ran.
	runtime.GC()
	if o.tr != nil {
		if err := r.probeStack(ctx, st, direct, o.tr); err != nil {
			return r, err
		}
	}
	if o.reference {
		r.checks++
		if err := checkReference(st.daemons[0].m, refPrefix, r.warm[0]); err != nil {
			r.checkErrs = append(r.checkErrs, err.Error())
		}
	}
	return r, nil
}

// withhold removes the last n cold items (and any repeats of them) from
// client 0's list and returns them.
func withhold(lists [][]item, n int) ([][]item, []item) {
	list := lists[0]
	var held []item
	cut := len(list)
	for i := len(list) - 1; i >= 0 && len(held) < n; i-- {
		if list[i].repeatOf < 0 {
			held = append(held, list[i])
			cut = i
		}
	}
	out := append([][]item{list[:cut]}, lists[1:]...)
	return out, held
}

// onlyDataset returns the PFS prefix of the one dataset a manager has
// staged so far.
func onlyDataset(m *service.Manager) string {
	paths := m.Store().List("ds/")
	if len(paths) == 0 {
		return ""
	}
	return paths[0][:strings.LastIndex(paths[0], "/")]
}

// checkReference reconstructs the warm job's scan with the plain serial FDK
// from the very projections the daemon staged, and holds the job's volume to
// the paper's bound against it.
func checkReference(m *service.Manager, prefix string, warm sample) error {
	spec := warm.item.spec
	g := geometryOf(spec)
	proj := make([]*volume.Image, g.Np)
	for s := range proj {
		img, _, err := m.Store().ReadProjection(prefix, s)
		if err != nil {
			return fmt.Errorf("reference: staged projection %d under %q: %w", s, prefix, err)
		}
		proj[s] = img
	}
	ref, err := fdk.Reconstruct(g, proj, fdk.Config{}) // the warm window is the default ram-lak
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	got, err := m.Volume(warm.id)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	rel, err := relRMSE(ref, got)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if rel > maxRelRMSE {
		return fmt.Errorf("reference: job %s is %g relative RMSE from fdk.Reconstruct, want ≤ %g", warm.id, rel, maxRelRMSE)
	}
	return nil
}

// relRMSE is the RMSE between two volumes over the reference's largest
// magnitude, the measure the service's own verification uses.
func relRMSE(ref, got *volume.Volume) (float64, error) {
	rmse, err := volume.RMSE(ref, got)
	if err != nil {
		return 0, err
	}
	s := ref.Summarize()
	scale := max(-float64(s.Min), float64(s.Max))
	return ratio(rmse, scale), nil
}
