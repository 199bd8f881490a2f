package service

// The manager's preview phase: the worker-side execution of the quality
// knob's coarse tier (see internal/service/progressive for the tier
// semantics and internal/ct/preview for the reconstruction itself).

import (
	"context"
	"time"

	"ifdk/internal/core"
	"ifdk/internal/ct/preview"
	"ifdk/pkg/volume"
)

// buildPreview resolves the job's preview tier: from the result cache when
// an identical preview already exists, otherwise by reconstructing the
// decimated problem from the staged dataset. The entry lands in the cache
// under the preview key and on the job record, and its availability is
// announced with EventPreview — for a progressive job, before any
// full-resolution round has run.
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

// previewFor returns a job's preview entry for serving: the one pinned on
// the job record, else the cache under the preview key. nil when the tier
// has not been built or is unreachable.
func (m *Manager) previewFor(j *Job) *Entry {
	if !j.qual.WantsPreview() {
		return nil
	}
	j.mu.Lock()
	e := j.preview
	j.mu.Unlock()
	if e != nil {
		return e
	}
	e, _ = m.cache.Get(j.previewKey) // nil on a miss
	return e
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
