package main

import (
	"fmt"
	"math/rand"
	"time"

	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/geometry"
	"ifdk/pkg/api"
)

// workload is one traffic mix. Every workload is closed-loop: each client
// submits its next job only after the previous one has been delivered.
type workload struct {
	name string
	why  string // the reason it exists, as BENCHMARK.json records it

	// A single-daemon workload reconstructs one shape on one phantom, on a
	// 2×2 grid.
	nx, nu, np int
	quality    string
	clients    int

	// rounds is how many rounds an untraced run is made of: fresh stack,
	// set-up, timed phase, each measuring for an equal share of the run's
	// seconds. Two is what the time cap affords where a round's set-up
	// renders a large scan, which costs as much as several jobs, and it
	// still gives setup_s a second sample. fleet_mixed sets up in a quarter
	// of the time and has three, which also keeps a round's clients well
	// short of the end of their lists on a faster host.
	rounds int

	// fleet puts ifdk-router in front of two daemons and draws small mixed
	// shapes instead: nx from fleetNX, np = 2·nx + 8k for k < npSteps.
	fleet   bool
	fleetNX []int
	npSteps int

	// The host probe of this workload (hostprobe.go): a plain FDK on
	// probeNP projections of the workload's shape (of its largest shape on
	// fleet_mixed), sized to take a tenth of a second, and the time it took
	// on the sizing host in its usual state. The nominal time only fixes
	// the scale of the end-to-end times; it is never measured again.
	// segment is how long the clients run between two stops for the probe:
	// unset, they stop after every job.
	probeNP       int
	probeNominalS float64
	segment       time.Duration

	// layerSum makes the run fail when queue wait and the pipeline's own
	// stages leave more than maxUnexplained of job_p50_s unaccounted for.
	// It is set where a job is all pipeline; on the other two workloads the
	// preview tier and per-request overhead are the point.
	layerSum bool
}

const maxUnexplained = 0.05

var workloads = []workload{
	{
		name: "volume_heavy",
		why:  "large volume, few small projections: back-projection is the blocking stage, filtering is not",
		nx:   128, nu: 256, np: 320, clients: 1, rounds: 2, layerSum: true,
		probeNP: 4, probeNominalS: 0.080,
	},
	{
		name: "projection_heavy",
		why:  "many large projections into a small volume: filter, load and AllGather block, back-projection does not",
		nx:   32, nu: 512, np: 256, clients: 1, rounds: 2, layerSum: true,
		probeNP: 6, probeNominalS: 0.100,
	},
	{
		name: "progressive_stream",
		why:  "quality=progressive consumed live: adds the preview tier, the event bus and the multipart slice path",
		nx:   128, nu: 256, np: 256, quality: api.QualityProgressive, clients: 1, rounds: 2,
		probeNP: 4, probeNominalS: 0.080,
	},
	{
		name:  "fleet_mixed",
		why:   "small jobs, half of them repeats, through the router to two daemons: admission, cache, hop and SDK dominate",
		fleet: true, fleetNX: []int{16, 32}, npSteps: 8, clients: 2, rounds: 3,
		probeNP: 80, probeNominalS: 0.040, segment: time.Second,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// toy shrinks a workload to nx=16 for the smoke test. Measurements are always
// taken at full size.
func (w workload) toy() workload {
	if w.fleet {
		w.fleetNX, w.npSteps = []int{16}, 1
	} else {
		w.nx, w.nu, w.np = 16, 32, 32
	}
	w.layerSum = false // a toy job is mostly per-request overhead
	return w
}

// warmWindow is the window of the warm-up job that stages a dataset and
// fills the buffer pools during set-up; coldWindows are the four others. All
// windows cost the same (only the ramp's gain table differs), so the cold
// jobs of one dataset are equal-cost samples that the result cache, left at
// its default, cannot serve.
var (
	warmWindow  = filter.RamLak.String()
	coldWindows = []string{filter.SheppLogan.String(), filter.Cosine.String(), filter.Hamming.String(), filter.Hann.String()}
)

// heavyPhantom is the one phantom of the single-daemon workloads. Rendering a
// scan costs time in proportion to the phantom's ellipsoid count and every
// round renders one, so the benchmark's time cap picks the single-ellipsoid
// sphere; reconstruction cost does not depend on the phantom.
const heavyPhantom = "sphere"

var (
	fleetPhantoms = []string{"shepplogan", "sphere", "industrial"}
	fleetGrids    = [][2]int{{2, 2}, {4, 2}, {2, 4}}
)

const (
	fleetSliceReads = 4 // GET /slice/{z} reads after every fleet_mixed job
	fleetVerifyEach = 8 // one cold job in this many asks for verification
	fleetBlock      = 8 // items per block; exactly half of each block repeats
)

// item is one job a client drives.
type item struct {
	spec     api.Spec
	repeatOf int   // index in the same client's list of the job this repeats; -1 for a cold job
	slices   []int // z indices read back over GET /slice/{z} once the job is done
}

// plan is the input of one round: a fresh stack, set up with the warm jobs,
// then driven by one list per client.
type plan struct {
	warm  []api.Spec // one per dataset; set-up runs each on every daemon
	lists [][]item
}

// plan generates round's inputs from the seed alone: the same (workload,
// seed, round) always yields the same plan, and the program under test sees
// nothing but the generated specs.
func (w workload) plan(seed int64, round int) plan {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(round)))
	if w.fleet {
		return w.fleetPlan(rng)
	}
	base := api.Spec{Phantom: heavyPhantom, NX: w.nx, NU: w.nu, NP: w.np, R: 2, C: 2, Quality: w.quality}
	warm := base
	warm.Window = warmWindow
	list := make([]item, len(coldWindows))
	for i, p := range rng.Perm(len(coldWindows)) {
		s := base
		s.Window = coldWindows[p]
		list[i] = item{spec: s, repeatOf: -1}
	}
	return plan{warm: []api.Spec{warm}, lists: [][]item{list}}
}

// shape is what a job's cost depends on: its dimensions and its grid. The
// phantom and the window do not change the cost.
type shape struct{ nx, nu, np, r, c int }

func shapeOf(s api.Spec) shape { return shape{s.NX, s.NU, s.NP, s.R, s.C} }

// fleetPlan deals the pool of distinct small specs to the clients and
// interleaves repeats. A client's cold jobs come in cycles: a cycle holds one
// spec of every shape, in seeded order, so whatever point of its list a
// client's time runs out at, it has run every shape the same number of times,
// give or take one. The seed draws which phantom and window a shape gets
// when, the order inside a cycle, the repeats and the slice reads; the mix of
// costs is the workload's, not the seed's. Each client's list is made of
// blocks of fleetBlock items of which exactly half repeat a spec the same
// client has already completed (a closed-loop client has, by the time it
// reaches an item, finished everything before it), so the repeat share of any
// prefix stays within half a block of one half.
func (w workload) fleetPlan(rng *rand.Rand) plan {
	var p plan
	var shapes []shape
	byShape := map[shape][]api.Spec{}
	for _, nx := range w.fleetNX {
		for k := 0; k < w.npSteps; k++ {
			for _, g := range fleetGrids {
				sh := shape{nx: nx, np: 2*nx + 8*k, r: g[0], c: g[1]}
				shapes = append(shapes, sh)
				for _, ph := range fleetPhantoms {
					warm := api.Spec{Phantom: ph, NX: nx, NP: sh.np, R: fleetGrids[0][0], C: fleetGrids[0][1], Window: warmWindow}
					if g == fleetGrids[0] {
						p.warm = append(p.warm, warm)
					}
					for _, win := range append([]string{warmWindow}, coldWindows...) {
						s := warm
						s.R, s.C, s.Window = sh.r, sh.c, win
						if s != warm { // the warm job's result is already cached
							byShape[sh] = append(byShape[sh], s)
						}
					}
				}
			}
		}
	}
	// Client c owns every shape's specs c, c+clients, … (in the seed's
	// order) and runs them in cycles of one spec per shape. Specs beyond the
	// last cycle that every shape can fill are left out, so a list ends
	// rather than run some shapes more often than others.
	cycles := len(byShape[shapes[0]])
	for _, sh := range shapes {
		specs := byShape[sh]
		rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		cycles = min(cycles, len(specs))
	}
	pools := make([][]api.Spec, w.clients)
	for c := range pools {
		for cycle := c; cycle < cycles; cycle += w.clients {
			start := len(pools[c])
			for _, sh := range shapes {
				pools[c] = append(pools[c], byShape[sh][cycle])
			}
			tail := pools[c][start:]
			rng.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
		}
	}

	p.lists = make([][]item, w.clients)
	for c := range p.lists {
		var cold []int // indices of this client's cold items so far
		pool, next := pools[c], 0
		for next < len(pool) {
			repeatAt := map[int]bool{}
			for _, pos := range rng.Perm(fleetBlock)[:fleetBlock/2] {
				repeatAt[pos] = true
			}
			for pos := 0; pos < fleetBlock && next < len(pool); pos++ {
				it := item{repeatOf: -1}
				if repeatAt[pos] && len(cold) > 0 {
					it.repeatOf = cold[rng.Intn(len(cold))]
					it.spec = p.lists[c][it.repeatOf].spec
				} else {
					it.spec = pool[next]
					it.spec.Verify = len(cold)%fleetVerifyEach == fleetVerifyEach-1
					next++
					cold = append(cold, len(p.lists[c]))
				}
				for s := 0; s < fleetSliceReads; s++ {
					it.slices = append(it.slices, rng.Intn(it.spec.NX))
				}
				p.lists[c] = append(p.lists[c], it)
			}
		}
	}
	return p
}

// hostProbe builds the workload's host probe.
func (w workload) hostProbe() *hostProbe {
	g := geometryOf(w.probeSpec())
	return newHostProbe(g.Nu, g.Nx, w.probeNP)
}

// probeSpec is the shape the traced pass probes the layers on: the
// workload's own, or for fleet_mixed the middle of its range.
func (w workload) probeSpec() api.Spec {
	if w.fleet {
		nx := w.fleetNX[len(w.fleetNX)-1]
		return api.Spec{NX: nx, NP: 2*nx + 8*(w.npSteps/2), R: 2, C: 2}
	}
	return api.Spec{NX: w.nx, NU: w.nu, NP: w.np, R: 2, C: 2}
}

// geometryOf is the scan geometry the service derives from a spec (square
// detector, cubic volume).
func geometryOf(s api.Spec) geometry.Params {
	nu, np := s.NU, s.NP
	if nu == 0 {
		nu = 2 * s.NX
	}
	if np == 0 {
		np = 2 * s.NX
	}
	return geometry.Default(nu, nu, np, s.NX, s.NX, s.NX)
}

// updates is Nx·Ny·Nz·Np, the numerator of the paper's GUPS metric.
func updates(s api.Spec) float64 {
	g := geometryOf(s)
	return float64(g.Nx) * float64(g.Ny) * float64(g.Nz) * float64(g.Np)
}
