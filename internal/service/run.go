package service

// The manager's runs: the worker pool and its shutdown, one job's execution
// from staging to its result, the serial-reference verification, and the
// preview phase — the worker-side execution of the quality knob's coarse
// tier (see internal/service/progressive for the tier semantics and
// internal/ct/preview for the reconstruction itself).

import (
	"context"
	"fmt"
	"time"

	"ifdk/internal/core"
	"ifdk/internal/ct/fdk"
	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/preview"
	"ifdk/internal/hpc/pfs"
	"ifdk/internal/service/progressive"
	"ifdk/pkg/volume"
)

// worker is one slot of the pool: it pops jobs until admission is closed
// and drained.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j, ok := m.admission.pop()
		if !ok {
			return
		}
		if !m.crashed.Load() { // a simulated kill -9 abandons the pop
			m.runJob(j)
		}
	}
}

// Shutdown stops admission, drains the queue and waits for in-flight jobs.
// When ctx expires first, all remaining jobs are cancelled and Shutdown
// waits for the pool to unwind before returning ctx's error.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.stopAdmission()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		for _, v := range m.List() {
			_ = m.Cancel(v.ID) // a terminal job reports ErrAlreadyTerminal and stays
		}
		<-done
	}
	m.journal.close()
	return err
}

// stopAdmission refuses further submissions and closes the queue, so the
// workers exit once it is drained.
func (m *Manager) stopAdmission() {
	m.mu.Lock()
	m.open = false
	m.mu.Unlock()
	m.admission.close()
}

// Crash simulates a kill -9 for the crash/restart tests. The journal is
// closed first — that is the cut point: nothing a still-live goroutine
// appends afterwards reaches the file, exactly like writes issued after a
// real kill. Then admission stops, queued jobs are abandoned unrun, and
// running jobs' contexts are cancelled. Unlike a real kill it does wait
// for the worker goroutines to unwind (their post-crash transitions die
// against the closed journal), so tests leak nothing.
//
//ifdk:noctx test support: simulated kill, bounded by running-job cancellation
func (m *Manager) Crash() {
	m.journal.close()
	m.crashed.Store(true)
	m.stopAdmission()
	for _, v := range m.List() {
		if v.State == StateRunning {
			_ = m.Cancel(v.ID)
		}
	}
	m.wg.Wait()
}

// runJob drives one job through running → terminal.
func (m *Manager) runJob(j *Job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A job cancelled while queued leaves the queue when the cancel releases
	// it, and a worker can pop it just before: the start is refused, and the
	// job never runs.
	if m.apply(j, StateQueued, evStart, nil, func() { j.cancel = cancel }) != nil {
		return
	}
	m.busy.Add(1)
	entry, err := m.execute(ctx, j)
	m.busy.Add(-1)
	var set func()
	ev := evSucceed
	if err != nil {
		ev, set = evFail, func() { j.err = err.Error() }
		if ctx.Err() != nil {
			ev = evCancel
		}
	}
	_ = m.apply(j, StateRunning, ev, entry, set) // only this worker moves a running job
}

// execute stages the dataset (once per content hash), runs the distributed
// reconstruction under the job's context, and optionally verifies the
// volume against the serial FDK reference.
func (m *Manager) execute(ctx context.Context, j *Job) (*Entry, error) {
	j.mu.Lock()
	j.tStage0 = time.Now()
	j.mu.Unlock()
	rendered, err := m.datasets.stageDataset(ctx, j)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	j.tRun0 = time.Now()
	staging := j.tRun0.Sub(j.tStage0) // the stage.dataset span
	j.mu.Unlock()
	if rendered {
		m.met.stageSeconds.With("dataset").Observe(staging.Seconds())
	}
	// A preview-quality job's result is its preview tier. Any other job's
	// volume exists before its preview tier, if it has one, so a /stream
	// that attaches to the running job keeps the volume that becomes its
	// result; the tier streams (EventPreview, the leading parts) before the
	// first full-resolution round completes.
	if j.qual == progressive.Preview {
		pe, err := m.buildPreview(ctx, j)
		if err != nil || !j.Spec.Verify {
			return pe, err
		}
		// Verify a copy: pe may be the live cached entry, whose fields must
		// not change under readers; runJob's Put stores the verified copy.
		ve := *pe
		if err := m.verifyPreview(ctx, j, &ve); err != nil {
			return nil, fmt.Errorf("verification: %w", err)
		}
		return &ve, nil
	}
	g := j.cfg.Geometry
	out, have := volume.New(g.Nx, g.Ny, g.Nz, volume.IMajor), make([]bool, g.Nz)
	j.mu.Lock()
	j.out, j.have = out, have
	j.mu.Unlock()
	if j.qual == progressive.Progressive {
		if _, err := m.buildPreview(ctx, j); err != nil {
			return nil, err
		}
	}
	cfg := j.cfg
	cfg.AssembleVolume = false // the row roots fill out instead of rank 0
	cfg.Progress = func(done, total int) {
		j.mu.Lock()
		j.done, j.total = done, total
		j.mu.Unlock()
		m.events.Publish(j.ID, Event{Type: EventRound, Done: done, Total: total})
	}
	// Each slice is copied into out and marked before its event is
	// published, so a client reacting to the event finds it.
	cfg.SliceWritten = func(z int, slice *volume.Image, written, total int) {
		copy(planeZ(out, z).Data, slice.Data)
		j.mu.Lock()
		have[z] = true
		j.mu.Unlock()
		m.events.Publish(j.ID, Event{Type: EventSlice, Z: z, Written: written, Total: total})
		if m.opt.testOnSlice != nil {
			m.opt.testOnSlice(j.ID, z)
		}
	}
	res, err := core.RunContext(ctx, cfg, m.store)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	j.rounds = res.Rounds[0] // rank 0's clock stands in for the grid
	j.mu.Unlock()
	entry := &Entry{Volume: out, Times: res.Max}
	if j.Spec.Verify {
		j.mu.Lock()
		j.tVerify0 = time.Now()
		j.mu.Unlock()
		if err := m.verifyAgainstSerial(ctx, j, entry); err != nil {
			return nil, fmt.Errorf("verification: %w", err)
		}
		j.mu.Lock()
		j.tVerify1 = time.Now()
		j.mu.Unlock()
	}
	return entry, nil
}

// verifyAgainstSerial recomputes the volume with the serial FDK loop and
// records the relative RMSE (the paper's < 1e-5 equivalence check). The
// loop filters each staged projection straight from its bytes on the PFS
// into a pooled transposed block, as the pipeline does, so verification
// holds at most one batch of blocks and decodes nothing; cancellation is
// checked before each projection.
func (m *Manager) verifyAgainstSerial(ctx context.Context, j *Job, e *Entry) error {
	// ref is a fresh allocation owned by this caller, not a pooled buffer:
	// it is dropped as garbage, never Released — releasing a foreign
	// buffer would corrupt the pools' footprint accounting.
	ref, _, err := fdk.ReconstructFrom(j.cfg.Geometry, func(flt *filter.Filterer, s int, block []float32) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		blob, _, err := m.store.Peek(pfs.ProjectionPath(j.cfg.InputPrefix, s))
		if err != nil {
			return err
		}
		return flt.ApplyEncoded(blob, block)
	}, fdk.Config{Window: j.cfg.Window})
	if err != nil {
		return err
	}
	return e.verify(ref)
}

// buildPreview resolves the job's preview tier: from the result cache when
// an identical preview already exists, otherwise by reconstructing the
// decimated problem from the staged dataset. The entry lands in the cache
// under the preview key and on the job record while the job runs, and its
// availability is announced with EventPreview — for a progressive job,
// before any full-resolution round has run.
func (m *Manager) buildPreview(ctx context.Context, j *Job) (*Entry, error) {
	t0 := time.Now()
	entry, hit := m.cache.Get(j.previewKey)
	if hit {
		m.met.previewHits.Inc()
	} else {
		vol, st, err := m.reconstructPreview(ctx, j)
		if err != nil {
			return nil, err
		}
		entry = &Entry{Volume: vol, Times: st}
		m.cache.Put(j.previewKey, entry)
		m.met.previewsBuilt.Inc()
	}
	j.mu.Lock()
	j.preview = entry
	j.mu.Unlock()
	m.events.Publish(j.ID, Event{Type: EventPreview, Factor: j.plan.Factor, Total: j.plan.Coarse.Nz})
	sec := time.Since(t0).Seconds()
	m.met.previewSec.Observe(sec)
	m.log.Info("preview ready", "job_id", j.ID, "trace_id", j.traceID,
		"factor", j.plan.Factor, "cached", hit, "preview_sec", sec)
	if m.opt.testOnPreview != nil {
		m.opt.testOnPreview(j.ID, j.plan.Factor)
	}
	return entry, nil
}

// previewFor returns a job's preview volume for serving: the entry the
// running job holds, else the cache's under the preview key. nil when the
// job has no preview tier, or its preview is not built or no longer held.
func (m *Manager) previewFor(j *Job) *volume.Volume {
	j.mu.Lock()
	e := j.preview
	j.mu.Unlock()
	if e != nil {
		return e.Volume
	}
	return m.cache.settled(j.previewKey)
}

// verifyPreview is the coarse analogue of verifyAgainstSerial: it rebuilds
// the preview from the staged dataset and compares. The preview contract is
// determinism — the served coarse volume must be the exact function of the
// staged dataset that journal replay reproduces — so the check is a pure
// re-run: a second build must match the served one.
func (m *Manager) verifyPreview(ctx context.Context, j *Job, e *Entry) error {
	ref, _, err := m.reconstructPreview(ctx, j)
	if err != nil {
		return err
	}
	return e.verify(ref)
}

// reconstructPreview builds the job's preview volume from its staged
// dataset. It is deterministic for a given (plan, dataset, window): always
// the block-mean decimation of the staged full-resolution projections, so
// crash-replayed jobs rebuild byte-identical previews. Its stage clock is
// the coarse reconstruction's: reading and decimating each kept projection
// run inside its Filter stage, so Load stays 0.
func (m *Manager) reconstructPreview(ctx context.Context, j *Job) (*volume.Volume, core.StageTimes, error) {
	t0 := time.Now()
	vol, tm, err := j.plan.Reconstruct(ctx, func(dst *volume.Image, s int) error {
		_, err := m.store.ReadProjectionInto(dst, j.cfg.InputPrefix, s)
		return err
	}, preview.Options{Window: j.cfg.Window})
	return vol, core.StageTimes{
		Filter:      tm.Filter,
		Backproject: tm.Backproject,
		Compute:     tm.Filter + tm.Backproject,
		Total:       time.Since(t0),
	}, err
}
