package service

import (
	"context"
	"sync"
	"sync/atomic"

	"ifdk/internal/core"
	"ifdk/internal/ct/projector"
	"ifdk/internal/engine"
	"ifdk/internal/hpc/pfs"
)

// datasets owns the staged scans on the PFS, ds/<hash>/proj_*: each is
// content-addressed (datasetPrefix) and shared by every job record that
// names it. A scan is written by the first job to run on it, under its
// entry's lock, and deleted with the last record that names it, under
// stageMu (deletes are not writes), or at once if staging fails.
type datasets struct {
	store   *pfs.PFS
	stageMu sync.Mutex
	staged  map[string]*dataset // by dataset prefix; an entry lives while a record names it
}

// dataset is one scan's entry in staged.
type dataset struct {
	lock   chan struct{} // one slot, held by the job staging the scan
	staged bool          // the whole scan is on the PFS; guarded by lock
	refs   int           // job records naming the scan; guarded by stageMu
}

// datasetPrefix content-addresses the staged scan of a spec: jobs with the
// same phantom and geometry share one projection set on the PFS.
func datasetPrefix(spec Spec, cfg core.Config) string {
	probe := core.Config{Geometry: cfg.Geometry}
	probe.InputPrefix = spec.Phantom // fold the phantom into the hash
	return "ds/" + CacheKey(probe)[:16]
}

// ref takes a new record's reference to the scan at prefix, making its
// entry if no record names it yet.
func (d *datasets) ref(prefix string) *dataset {
	d.stageMu.Lock()
	defer d.stageMu.Unlock()
	s := d.staged[prefix]
	if s == nil {
		s = &dataset{lock: make(chan struct{}, 1)}
		d.staged[prefix] = s
	}
	s.refs++
	return s
}

// unref gives back j's reference to its scan. The last one deletes the scan
// and its entry, under stageMu, so a record built meanwhile makes a fresh
// entry and stages afresh.
func (d *datasets) unref(j *Job) {
	d.stageMu.Lock()
	defer d.stageMu.Unlock()
	if j.scan.refs--; j.scan.refs == 0 {
		d.deleteScan(j.cfg.InputPrefix, j.cfg.Geometry.Np)
		delete(d.staged, j.cfg.InputPrefix)
	}
}

// deleteScan deletes a scan's np projections from the PFS. It deletes by
// name because listing a prefix walks every object in the store.
func (d *datasets) deleteScan(prefix string, np int) {
	for s := 0; s < np; s++ {
		d.store.Delete(pfs.ProjectionPath(prefix, s))
	}
}

// stageDataset puts the job's scan on the PFS unless it is there already,
// once per content hash. The job takes its dataset's lock, so one job
// stages while the others with the same scan wait, and it stages under its
// own context, checking it between projections: a cancelled job (or a
// shutdown) stops mid-scan and deletes the partial scan before letting go.
// Whoever takes the lock next stages afresh, so one cancelled job never
// poisons the scan for the jobs waiting on it. rendered reports whether
// this job rendered and staged the scan, rather than finding it staged.
func (d *datasets) stageDataset(ctx context.Context, j *Job) (rendered bool, err error) {
	select {
	case j.scan.lock <- struct{}{}:
	case <-ctx.Done():
		return false, ctx.Err()
	}
	defer func() { <-j.scan.lock }()
	if j.scan.staged {
		return false, nil
	}
	if err := d.renderAndStage(ctx, j); err != nil {
		// No one may read a partial scan.
		d.deleteScan(j.cfg.InputPrefix, j.cfg.Geometry.Np)
		return false, err
	}
	j.scan.staged = true
	return true, nil
}

// renderAndStage synthesizes the scan's projections and writes them to the
// PFS in one engine.ParallelRange: each worker renders its projections into
// one pooled image and writes each straight from it, so the scan is never
// held whole. ctx is checked between projections, and a failed write stops
// every worker at its next one. The call returns only after every worker's
// last write, so the caller's delete of a partial dataset cannot race a
// late write.
func (d *datasets) renderAndStage(ctx context.Context, j *Job) error {
	g := j.cfg.Geometry
	var failure atomic.Pointer[error]
	engine.ParallelRange(g.Np, 0, func(lo, hi int) {
		img := engine.Images.Acquire(g.Nu, g.Nv)
		defer engine.Images.Release(img)
		r := projector.NewRenderer(j.ph, g)
		for s := lo; s < hi && failure.Load() == nil; s++ {
			err := ctx.Err()
			if err == nil {
				r.Render(img, s)
				_, err = d.store.WriteProjection(j.cfg.InputPrefix, s, img)
			}
			if err != nil {
				failure.CompareAndSwap(nil, &err)
				return
			}
		}
	})
	if err := failure.Load(); err != nil {
		return *err
	}
	return nil
}
