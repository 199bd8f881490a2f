package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ifdk/internal/core"
	"ifdk/internal/ct/backproject"
	"ifdk/internal/ct/fdk"
	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/internal/ct/preview"
	"ifdk/internal/ct/projector"
	"ifdk/internal/engine"
	"ifdk/internal/fft"
	"ifdk/internal/hpc/mpi"
	"ifdk/internal/hpc/pfs"
	"ifdk/internal/perfmodel"
	"ifdk/internal/service"
	"ifdk/pkg/api"
	"ifdk/pkg/volume"
)

const (
	// bpSubset is how many projections the back-projection probes accumulate:
	// one default batch. The plain Standard baseline costs about six times
	// the proposed kernel per projection, so the subset keeps the traced
	// pass inside the benchmark's time cap; rates and ratios do not depend
	// on it.
	bpSubset = backproject.DefaultBatch
	// Repetitions of the probes that finish in milliseconds.
	fftRows     = 2000
	mpiRounds   = 16
	replayReads = 5
	hopSubmits  = 10
)

// timed runs f under a span and returns how long it took.
func timed(tr *tracer, name string, parent int, f func() error) (float64, error) {
	_, end := tr.start(name, parent, "")
	t0 := time.Now()
	err := f()
	d := time.Since(t0).Seconds()
	end()
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// layerProbes is what probeLayers measured beyond plain metric values.
type layerProbes struct {
	vals     values
	model    perfmodel.Times // the Sec. 4.2 model's stage times for this shape
	agRounds int             // AllGather rounds one rank performs per job
	errs     []string        // failed correctness checks
}

// probeLayers calls each layer's public entry points directly, one after the
// other on an otherwise idle process, on the geometry of spec and on
// projections it renders itself. Every call sits in a span under one
// "layers" root. Nothing here goes through the service: these are the
// numbers a change to a single layer moves first.
func probeLayers(ctx context.Context, spec api.Spec, tr *tracer) (layerProbes, error) {
	lp := layerProbes{vals: values{}}
	v := lp.vals
	root, endRoot := tr.start("layers", 0, "")
	defer endRoot()
	var firstErr error
	probe := func(name string, f func() error) float64 {
		if firstErr != nil {
			return 0
		}
		d, err := timed(tr, name, root, f)
		firstErr = err
		return d
	}
	mib := func(bytes int64, sec float64) float64 { return ratio(float64(bytes)/(1<<20), sec) }

	g := geometryOf(spec)
	nproc := runtime.NumCPU()
	win := filter.RamLak
	// The sphere the service renders for phantom "sphere" (render cost grows
	// with the ellipsoid count, reconstruction cost does not depend on it).
	ph := phantom.UniformSphere(g.FOVRadius()*0.9*0.6, 1)

	// projector + pfs: what set-up pays per dataset.
	var proj []*volume.Image
	v["projector.render_s"] = probe("projector.AnalyticAll", func() error {
		proj = projector.AnalyticAll(ph, g, 0)
		return nil
	})
	v["projector.mrays_per_s"] = ratio(float64(g.Nu)*float64(g.Nv)*float64(g.Np)/1e6, v["projector.render_s"])

	store := pfs.New(pfs.Config{})
	const dataset, output = "ds/probe", "jobs/probe/out"
	d := probe("core.StageProjections", func() error { return core.StageProjections(store, dataset, proj) })
	v["pfs.write_proj_mb_per_s"] = mib(store.Stats().BytesWritten, d)

	d = probe("pfs.ReadProjectionInto", func() error {
		img := engine.Images.Acquire(g.Nu, g.Nv)
		defer engine.Images.Release(img)
		for s := 0; s < g.Np; s++ {
			if _, err := store.ReadProjectionInto(img, dataset, s); err != nil {
				return err
			}
		}
		return nil
	})
	v["pfs.read_proj_mb_per_s"] = mib(store.Stats().BytesRead, d)

	// core: the distributed pipeline with no service around it.
	cfg := core.Config{R: spec.R, C: spec.C, Geometry: g, Window: win,
		InputPrefix: dataset, OutputPrefix: output, AssembleVolume: true}
	var res *core.Result
	before := store.Stats()
	probe("core.RunContext", func() (err error) {
		res, err = core.RunContext(ctx, cfg, store)
		return err
	})
	if firstErr != nil {
		return lp, firstErr
	}
	after := store.Stats()
	v["core.direct_total_s"] = res.Max.Total.Seconds()
	v["pfs.bytes_read_per_job"] = float64(after.BytesRead - before.BytesRead)
	v["pfs.bytes_written_per_job"] = float64(after.BytesWritten - before.BytesWritten)
	v["mpi.bytes_per_job"] = float64(res.BytesSent)

	blobs := make([][]byte, g.Nz)
	for z := range blobs {
		blobs[z] = volume.ImageToBytes(res.Volume.SliceZ(z))
	}
	before = store.Stats()
	d = probe("pfs.Write(slices)", func() error {
		for z, blob := range blobs {
			if _, err := store.Write(pfs.SlicePath("jobs/probe/again", z), blob); err != nil {
				return err
			}
		}
		return nil
	})
	v["pfs.write_slice_mb_per_s"] = mib(store.Stats().BytesWritten-before.BytesWritten, d)

	// fdk: the plain single-threaded baseline, and the reference the
	// pipeline's volume must match.
	var ref *volume.Volume
	v["fdk.serial_s"] = probe("fdk.Reconstruct", func() (err error) {
		ref, err = fdk.Reconstruct(g, proj, fdk.Config{Window: win, Workers: 1})
		return err
	})
	if firstErr != nil {
		return lp, firstErr
	}
	v["core.speedup_vs_serial"] = ratio(v["fdk.serial_s"], v["core.direct_total_s"])
	if rel, err := relRMSE(ref, res.Volume); err != nil || rel > maxRelRMSE {
		lp.errs = append(lp.errs, fmt.Sprintf("core.RunContext vs fdk.Reconstruct: rel RMSE %g (err %v), want ≤ %g", rel, err, maxRelRMSE))
	}

	// preview: the coarse tier of a progressive job.
	plan, err := preview.PlanFor(g, 0)
	if err != nil {
		return lp, err
	}
	v["preview.plan_factor"] = float64(plan.Factor)
	v["preview.decimate_s"] = probe("preview.DecimateInto", func() error {
		coarse := engine.Images.Acquire(plan.Coarse.Nu, plan.Coarse.Nv)
		defer engine.Images.Release(coarse)
		for i := 0; i < plan.Coarse.Np; i++ {
			if err := preview.DecimateInto(coarse, proj[i*plan.Factor], plan.Factor); err != nil {
				return err
			}
		}
		return nil
	})
	v["preview.reconstruct_s"] = probe("preview.Plan.Reconstruct", func() error {
		_, _, err := plan.Reconstruct(ctx, func(dst *volume.Image, s int) error {
			_, err := store.ReadProjectionInto(dst, dataset, s)
			return err
		}, preview.Options{Window: win})
		return err
	})

	// filter + fft. The sweep runs last and in place, which leaves proj
	// filtered for the back-projection probes.
	var flt *filter.Filterer
	v["filter.plan_build_s"] = probe("filter.New", func() (err error) {
		flt, err = filter.New(g, win)
		return err
	})
	if firstErr != nil {
		return lp, firstErr
	}
	v["filter.apply_s"] = probe("filter.ApplyInto", func() error {
		q := engine.Images.Acquire(g.Nu, g.Nv)
		defer engine.Images.Release(q)
		for _, e := range proj {
			if err := flt.ApplyInto(e, q); err != nil {
				return err
			}
		}
		return nil
	})
	v["filter.mpix_per_s"] = ratio(float64(g.Nu)*float64(g.Nv)*float64(g.Np)/1e6, v["filter.apply_s"])
	v["filter.sweep_s"] = probe("filter.Sweep", func() error { return flt.Sweep(proj, proj, nproc) })

	rowLen := fft.NextPow2(2 * g.Nu)
	rplan, err := fft.NewRealPlan(rowLen)
	if err != nil {
		return lp, err
	}
	d = probe("fft.RealPlan", func() error {
		row, spec := make([]float32, rowLen), make([]complex64, rplan.HalfLen())
		copy(row, proj[0].Row(0))
		for i := 0; i < fftRows; i++ {
			rplan.Forward(spec, row)
			rplan.Inverse(row, spec)
		}
		return nil
	})
	v["fft.real_row_ns"] = d * 1e9 / fftRows

	// backproject: one batch of filtered projections into the full volume.
	nb := min(bpSubset, g.Np)
	task := backproject.Task{Proj: proj[:nb]}
	for s := 0; s < nb; s++ {
		task.Mats = append(task.Mats, geometry.ProjectionMatrix(g, g.Beta(s)))
	}
	bp := func(name string, nz int, layout volume.Layout, run func(vol *volume.Volume) error) float64 {
		return probe(name, func() error {
			vol := engine.Volumes.Acquire(g.Nx, g.Ny, nz, layout)
			defer engine.Volumes.Release(vol)
			return run(vol)
		})
	}
	v["backproject.proposed_s"] = bp("backproject.Proposed(1)", g.Nz, volume.KMajor, func(vol *volume.Volume) error {
		return backproject.Proposed(task, vol, backproject.Options{Workers: 1})
	})
	v["backproject.proposed_par_s"] = bp("backproject.Proposed(nproc)", g.Nz, volume.KMajor, func(vol *volume.Volume) error {
		return backproject.Proposed(task, vol, backproject.Options{Workers: nproc})
	})
	z0, z1 := core.RowSlab(0, g.Nz, spec.R)
	v["backproject.slabpair_s"] = bp("backproject.ProposedSlabPair", 2*(z1-z0), volume.KMajor, func(vol *volume.Volume) error {
		return backproject.ProposedSlabPair(task, vol, backproject.Options{Workers: 1}, g.Nz, z0, z1)
	})
	standard := bp("backproject.Standard", g.Nz, volume.IMajor, func(vol *volume.Volume) error {
		return backproject.Standard(task, vol, backproject.Options{Workers: 1})
	})
	v["backproject.gups"] = ratio(float64(g.Nx)*float64(g.Ny)*float64(g.Nz)*float64(nb)/(1<<30), v["backproject.proposed_par_s"])
	v["backproject.speedup_vs_standard"] = ratio(standard, v["backproject.proposed_s"])

	// mpi: the two collectives of a job, on idle ranks.
	lp.agRounds = g.Np / (spec.R * spec.C)
	ag, err := probeAllGather(tr, root, spec.R, g.Nu*g.Nv)
	if err != nil {
		return lp, err
	}
	slab := g.Nx * g.Ny * 2 * (z1 - z0)
	red, err := probeReduce(tr, root, spec.C, slab)
	if err != nil {
		return lp, err
	}
	v["mpi.allgather_round_s"] = ag.sec
	v["mpi.allgather_mb_per_s"] = mib(int64(4*spec.R*g.Nu*g.Nv), ag.sec)
	v["mpi.reduce_s"] = red.sec
	// One job = per column group agRounds AllGathers, per row group one
	// Reduce, and R−1 slab pairs sent to rank 0 for assembly. The byte form
	// of that sum must equal what the pipeline counted, which is what makes
	// the message form exact.
	v["mpi.msgs_per_job"] = float64(spec.C*lp.agRounds)*ag.msgs + float64(spec.R)*red.msgs + float64(spec.R-1)
	if bytes := float64(spec.C*lp.agRounds)*ag.bytes + float64(spec.R)*red.bytes + float64((spec.R-1)*4*slab); bytes != v["mpi.bytes_per_job"] {
		lp.errs = append(lp.errs, fmt.Sprintf("mpi traffic model: %g bytes per job, the pipeline counted %g", bytes, v["mpi.bytes_per_job"]))
	}

	est, err := perfmodel.Estimate(cfg)
	if err != nil {
		return lp, err
	}
	lp.model = est.Times
	return lp, firstErr
}

// collective is one collective's cost on idle ranks: seconds per call on
// rank 0's clock, and the exact messages and payload bytes one call moves.
type collective struct{ sec, msgs, bytes float64 }

// probeCollective runs call once in a world of its own to count its
// traffic, then `rounds` times between two barriers in a second world to
// time it. The traffic
// counters are world totals, so the count is read by every rank as it
// leaves and the largest reading — the last rank's — is the exact total.
func probeCollective(tr *tracer, parent int, name string, ranks, payload, rounds int, call func(c *mpi.Comm, data []float32) error) (collective, error) {
	var col collective
	readings := make([][2]int64, ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		if err := call(c, make([]float32, payload)); err != nil {
			return err
		}
		readings[c.Rank()] = [2]int64{c.MessagesSent(), c.BytesSent()}
		return nil
	})
	if err != nil {
		return col, fmt.Errorf("%s: %w", name, err)
	}
	for _, r := range readings {
		col.msgs = max(col.msgs, float64(r[0]))
		col.bytes = max(col.bytes, float64(r[1]))
	}
	_, end := tr.start(name, parent, "")
	defer end()
	err = mpi.Run(ranks, func(c *mpi.Comm) error {
		data := make([]float32, payload)
		if err := c.Barrier(); err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			if err := call(c, data); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			col.sec = time.Since(t0).Seconds() / float64(rounds)
		}
		return nil
	})
	if err != nil {
		return col, fmt.Errorf("%s: %w", name, err)
	}
	return col, nil
}

func probeAllGather(tr *tracer, parent, ranks, payload int) (collective, error) {
	return probeCollective(tr, parent, "mpi.AllGatherBufs", ranks, payload, mpiRounds, func(c *mpi.Comm, data []float32) error {
		blocks, err := c.AllGatherBufs(data)
		for _, b := range blocks {
			b.Release()
		}
		return err
	})
}

func probeReduce(tr *tracer, parent, ranks, payload int) (collective, error) {
	return probeCollective(tr, parent, "mpi.ReduceBufs", ranks, payload, 1, func(c *mpi.Comm, data []float32) error {
		acc, err := c.ReduceBufs(0, data, mpi.OpSum)
		acc.Release() // nil on every rank but the root
		return err
	})
}

// probeStack measures what needs the round's live stack: jobs submitted to
// the Manager with no HTTP in between, the slice stream's encode-and-flush
// rate on a finished job, and the router's hop.
func (r *round) probeStack(ctx context.Context, st *stack, direct []item, tr *tracer) error {
	root, endRoot := tr.start("stack", 0, "")
	defer endRoot()

	m := st.daemons[0].m
	for _, it := range direct {
		d, err := timed(tr, "service.Manager.Submit", root, func() error { return runDirect(ctx, m, it.spec) })
		if err != nil {
			return err
		}
		r.direct = append(r.direct, sample{item: it, job: d})
	}

	// Late attach to the finished warm job: no reconstruction, only
	// multipart encode, flush and the SDK's decode.
	c := st.client(st.daemons[0].url)
	var rates []float64
	for i := 0; i < replayReads; i++ {
		var raw int64
		d, err := timed(tr, "client.Stream(replay)", root, func() error {
			sr, err := c.Stream(ctx, r.warm[0].id, nil)
			if err == nil {
				raw = sr.RawBytes
			}
			return err
		})
		if err != nil {
			return err
		}
		rates = append(rates, ratio(float64(raw)/(1<<20), d))
	}
	r.streamMiBs = median(rates)

	if st.rt == nil || len(r.jobs) == 0 {
		return nil
	}
	// The same cached spec, submitted through the router and straight to
	// the backend that holds it: both are cache hits, the difference is
	// the hop.
	cached := r.jobs[0]
	rtt := func(name, url string) (float64, error) {
		cl := st.client(url)
		var rtts []float64
		for i := 0; i < hopSubmits; i++ {
			d, err := timed(tr, name, root, func() error {
				v, err := cl.Submit(ctx, cached.item.spec)
				if err == nil && !v.CacheHit {
					err = fmt.Errorf("resubmitting %s's spec was not a cache hit", cached.id)
				}
				return err
			})
			if err != nil {
				return 0, err
			}
			rtts = append(rtts, d)
		}
		return median(rtts), nil
	}
	via, err := rtt("client.Submit(router)", st.base)
	if err != nil {
		return err
	}
	straight, err := rtt("client.Submit(backend)", st.owner(cached.id).url)
	if err != nil {
		return err
	}
	r.hopS = via - straight
	return nil
}

// runDirect submits a spec to the Manager itself and waits on its event bus
// for the terminal event: the job with the HTTP server, the SSE encoder and
// the SDK taken away.
func runDirect(ctx context.Context, m *service.Manager, spec api.Spec) error {
	v, err := m.Submit(spec)
	if err != nil {
		return err
	}
	sub := m.Events().Subscribe(v.ID, 0)
	defer sub.Close()
	for {
		batch, open := sub.Next(ctx)
		for _, e := range batch {
			if e.Type.Terminal() {
				if e.State != api.StateDone {
					return fmt.Errorf("direct job %s ended %s: %s", v.ID, e.State, e.Error)
				}
				return nil
			}
		}
		if !open {
			return fmt.Errorf("direct job %s: event stream ended without a terminal event", v.ID)
		}
	}
}
