// Package service is the reconstruction serving layer on top of the iFDK
// core: a job manager with a bounded priority queue, a worker pool running
// up to K concurrent distributed reconstructions, a content-addressed result
// cache, and an HTTP API speaking the versioned pkg/api contract. It turns
// the paper's one-shot pipeline (Fig. 2–4) into a long-lived system with
// submit/status/cancel semantics, backpressure and instant replies for
// repeated requests — the serving-side counterpart of the paper's "instant"
// reconstruction claim.
package service

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"ifdk/internal/core"
	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/internal/ct/preview"
	"ifdk/pkg/api"
	"ifdk/pkg/volume"
)

// Priority orders jobs within the queue; higher priorities pop first,
// FIFO within a priority class.
type Priority int

const (
	// PriorityLow is background work (e.g. re-verification sweeps).
	PriorityLow Priority = iota
	// PriorityNormal is the default interactive class.
	PriorityNormal
	// PriorityHigh preempts queued normal work (not running jobs).
	PriorityHigh
	numPriorities
)

// parsePriority maps the wire strings "low", "normal" (or ""), "high".
func parsePriority(s string) (Priority, error) {
	switch strings.ToLower(s) {
	case "low":
		return PriorityLow, nil
	case "", "normal":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	}
	return 0, fmt.Errorf("service: unknown priority %q", s)
}

func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityHigh:
		return "high"
	default:
		return "normal"
	}
}

// specWithDefaults fills the zero fields exactly as cmd/ifdk does. (A free
// function, not a method: Spec is an alias of the public api.Spec, and the
// defaulting policy is server business, not contract.)
func specWithDefaults(s Spec) Spec {
	if s.Phantom == "" {
		s.Phantom = "shepplogan"
	}
	if s.NX <= 0 {
		s.NX = 16
	}
	if s.NU <= 0 {
		s.NU = 2 * s.NX
	}
	if s.NP <= 0 {
		s.NP = 2 * s.NX
	}
	if s.R <= 0 {
		s.R = 2
	}
	if s.C <= 0 {
		s.C = 2
	}
	if s.Window == "" {
		s.Window = filter.RamLak.String()
	}
	if s.Quality == "" {
		s.Quality = api.QualityFull
	}
	if s.Client == "" {
		s.Client = "anonymous"
	}
	return s
}

// Admission limits: one request must not be able to allocate unbounded
// memory on the daemon (the in-memory PFS holds every staged projection and
// output slice, and each rank owns a slab of the volume).
const (
	maxNX    = 256
	maxNU    = 1024
	maxNP    = 4096
	maxRanks = 64
	// maxClient bounds the client id in bytes. The id is journaled with the
	// spec, and one record must stay far below readJournal's line buffer.
	maxClient = 256
)

// resolvedSpec is a Spec compiled all the way to its identity: the defaulted
// spec, the worker-side pieces, the preview plan and the keys. Submit,
// journal replay and SpecKey all derive identity through this one function,
// so a crash-replayed or re-routed job lands on byte-identical keys, and a
// job record keeps the resolvedSpec it was built from.
type resolvedSpec struct {
	spec Spec // defaulted: Quality is one of api.QualityFull, QualityPreview, QualityProgressive
	ph   phantom.Phantom
	cfg  core.Config // R, C, Geometry, Window and InputPrefix: the run's identity
	prio Priority
	plan preview.Plan // Factor ≥ 1; meaningful when the tier builds a preview

	// fullKey is the full-resolution result key, resultKey(cfg). prevKey
	// ("" unless the tier builds a preview) can never alias any fullKey.
	// cacheKey is the job's own result key: prevKey for preview-quality
	// jobs, fullKey otherwise.
	fullKey  string
	prevKey  string
	cacheKey string
}

// resolveSpec defaults and validates a Spec — admission limits first, so no
// request can allocate unbounded memory — and derives its identity.
func resolveSpec(s Spec) (resolvedSpec, error) {
	s = specWithDefaults(s)
	if s.NX > maxNX || s.NU > maxNU || s.NP > maxNP {
		return resolvedSpec{}, fmt.Errorf(
			"service: problem size nx=%d nu=%d np=%d exceeds limits (%d, %d, %d)",
			s.NX, s.NU, s.NP, maxNX, maxNU, maxNP)
	}
	if len(s.Client) > maxClient {
		return resolvedSpec{}, fmt.Errorf("service: client id of %d bytes exceeds limit %d", len(s.Client), maxClient)
	}
	// Bound each factor first: R·C of two huge factors wraps (to 0, which
	// Validate would divide by).
	if s.R > maxRanks || s.C > maxRanks || s.R*s.C > maxRanks {
		return resolvedSpec{}, fmt.Errorf(
			"service: grid %dx%d = %d ranks exceeds limit %d", s.R, s.C, s.R*s.C, maxRanks)
	}
	r := resolvedSpec{spec: s}
	g := geometry.Default(s.NU, s.NU, s.NP, s.NX, s.NX, s.NX)
	var err error
	if r.ph, err = phantom.ByName(s.Phantom, g); err != nil {
		return resolvedSpec{}, fmt.Errorf("service: %w", err)
	}
	win, err := filter.ParseWindow(s.Window)
	if err != nil {
		return resolvedSpec{}, fmt.Errorf("service: %w", err)
	}
	if r.prio, err = parsePriority(s.Priority); err != nil {
		return resolvedSpec{}, err
	}
	// The quality is case-sensitive, and "" was defaulted to full above
	// (a Spec from before the field is a full-quality Spec).
	switch s.Quality {
	case api.QualityFull, api.QualityPreview, api.QualityProgressive:
	default:
		return resolvedSpec{}, fmt.Errorf("service: unknown quality %q (want %s, %s or %s)",
			s.Quality, api.QualityFull, api.QualityPreview, api.QualityProgressive)
	}
	r.cfg = core.Config{R: s.R, C: s.C, Geometry: g, Window: win, InputPrefix: datasetPrefix(s.Phantom, g)}
	if err := r.cfg.Validate(); err != nil {
		return resolvedSpec{}, err
	}
	r.fullKey = resultKey(r.cfg)
	r.cacheKey = r.fullKey
	if s.Quality != api.QualityFull {
		if r.plan, err = preview.PlanFor(g, 0); err != nil {
			return resolvedSpec{}, err
		}
		r.prevKey = previewKey(r.fullKey, r.plan.Factor)
		if s.Quality == api.QualityPreview {
			r.cacheKey = r.prevKey
		}
	}
	return r, nil
}

// SpecKey returns the content cache key a Manager would derive for spec —
// "which volume from which data". It is the sharding key a front router
// hashes across backends: two submissions that would be cache-identical on
// one node must land on the same node, or the fleet-wide hit rate collapses
// to 1/N. The key is quality-aware: a preview-quality spec keys (and
// therefore routes) on its preview key, so preview traffic spreads off the
// full-resolution key's shard while repeated previews of one spec still
// share a backend cache. The error mirrors Submit's validation, so a router
// can reject unroutable specs before touching any backend.
func SpecKey(spec Spec) (string, error) {
	r, err := resolveSpec(spec)
	if err != nil {
		return "", err
	}
	return r.cacheKey, nil
}

// Job is one reconstruction request tracked by the manager. All mutable
// fields are guarded by mu; readers use snapshot().
type Job struct {
	ID           string
	resolvedSpec // what the job is, immutable after submit

	mu        sync.Mutex
	state     State // written only by Manager.apply (lifecycle.go)
	err       string
	done      int // completed AllGather rounds
	total     int // Np rounds in total
	times     core.StageTimes
	cacheHit  bool
	relRMSE   float64 // only meaningful when Spec.Verify and state == done
	verified  bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    func() // non-nil while running

	// out is a running job's output volume, the one home of its slices:
	// each row root copies its planes in, have[z] marks plane z as filled
	// (written before have[z] is set, never again after), and out becomes
	// the result. Both are nil outside the run and cleared on every
	// terminal transition, as is preview: a settled record keeps its keys.
	out  *volume.Volume
	have []bool

	// tracing: the job's trace identity (minted at submit or inherited from
	// the caller's traceparent) and the raw timestamps span assembly turns
	// into the lifecycle tree (see trace.go). rounds is rank 0's per-round
	// filter/AllGather clock, recorded by the compute plane into a
	// pre-sized buffer.
	traceID    string
	parentSpan string
	tStage0    time.Time // dataset staging start
	tRun0      time.Time // staging end, where the pipeline starts
	rounds     []core.RoundTrace
	tVerify0   time.Time // serial-reference verification window
	tVerify1   time.Time

	scan    *dataset // the staged entry of cfg.InputPrefix, referenced by this record
	preview *Entry   // the preview entry a running job's tier built or found; mu-guarded

	// recovered marks a job rebuilt from the write-ahead journal after a
	// restart (immutable once the job is visible).
	recovered bool

	est price // the admission charge, immutable after submit
}

func stagesOf(t core.StageTimes) Stages {
	return Stages{
		Load:        t.Load.Seconds(),
		Filter:      t.Filter.Seconds(),
		AllGather:   t.AllGather.Seconds(),
		Backproject: t.Backproject.Seconds(),
		Compute:     t.Compute.Seconds(),
		Reduce:      t.Reduce.Seconds(),
		Store:       t.Store.Seconds(),
		Total:       t.Total.Seconds(),
	}
}

func fmtTime(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// snapshot returns a consistent read-only view of the job.
func (j *Job) snapshot() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:        j.ID,
		State:     j.state,
		Spec:      j.spec,
		Priority:  j.prio.String(),
		CacheHit:  j.cacheHit,
		Error:     j.err,
		RelRMSE:   j.relRMSE,
		Verified:  j.verified,
		Submitted: fmtTime(j.submitted),
		Started:   fmtTime(j.started),
		Finished:  fmtTime(j.finished),
		EstRunSec: j.est.modelSec,
		Cost:      j.est.cost,
		EstBytes:  j.est.bytes,
		TraceID:   j.traceID,
		Stages:    stagesOf(j.times),
		Recovered: j.recovered,
		Quality:   j.spec.Quality,
	}
	if j.spec.Quality != api.QualityFull {
		v.PreviewFactor = j.plan.Factor
	}
	if j.total > 0 {
		v.Progress = float64(j.done) / float64(j.total)
	}
	if j.state == StateDone {
		v.Progress = 1
	}
	switch {
	case !j.started.IsZero():
		v.WaitSec = j.started.Sub(j.submitted).Seconds()
	case !j.finished.IsZero(): // cache hit or cancelled while queued
		v.WaitSec = j.finished.Sub(j.submitted).Seconds()
	default:
		v.WaitSec = time.Since(j.submitted).Seconds()
	}
	if !j.started.IsZero() && !j.finished.IsZero() {
		v.RunSec = j.finished.Sub(j.started).Seconds()
	}
	return v
}

// resultNz is the z extent of the job's result volume: the coarse grid for
// preview-quality jobs (whose result IS the preview), the full grid
// otherwise. The slice and stream handlers index with this, never with the
// full geometry directly.
func (j *Job) resultNz() int {
	if j.spec.Quality == api.QualityPreview {
		return j.plan.Coarse.Nz
	}
	return j.cfg.Geometry.Nz
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}
