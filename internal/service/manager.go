package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ifdk/internal/core"
	"ifdk/internal/ct/fdk"
	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/projector"
	"ifdk/internal/engine"
	"ifdk/internal/hpc/pfs"
	"ifdk/internal/obs"
	"ifdk/internal/perfmodel"
	"ifdk/internal/service/progressive"
	"ifdk/pkg/api"
	"ifdk/pkg/volume"
)

// ErrQuota is returned by Submit when the client's token bucket is empty —
// the HTTP layer translates it to 429.
var ErrQuota = errors.New("service: client quota exceeded")

// ErrWorkingSet is returned by Submit when admitting the job would push the
// estimated in-flight working set past the configured byte budget.
var ErrWorkingSet = errors.New("service: in-flight working-set budget exhausted")

// ErrAlreadyTerminal is reported by Cancel when the job is already in a
// terminal state; DELETE handlers fall through to record deletion on it.
var ErrAlreadyTerminal = errors.New("service: job already terminal")

// ErrNotFound is reported for operations on unknown job IDs.
var ErrNotFound = errors.New("service: no such job")

// Options configures a Manager.
type Options struct {
	Workers    int   // concurrent reconstructions (default 2)
	QueueCap   int   // bounded admission queue, jobs (default 4·Workers)
	CacheBytes int64 // result-cache budget in bytes (default 1 GiB, < 0 disables)
	MaxJobs    int   // retained job records; oldest terminal ones are pruned (default 1024)

	// PFS sets the bandwidths of the in-memory store behind every job. It
	// is a test seam: nothing in production sets it (zero = defaults), and
	// tests set Throttle to stretch jobs.
	PFS pfs.Config

	// NodeID, when set, prefixes every job ID ("b2-j00000001" instead of
	// "j00000001"), making IDs globally unique across a fleet of ifdkd
	// instances behind a front router — the router attributes any job ID to
	// its backend without a shared sequencer.
	NodeID string

	// JournalDir, when set, makes accepted jobs durable: every lifecycle
	// transition is appended to a write-ahead journal under this real
	// filesystem directory (fsynced before the submit is acked) and
	// replayed on the next start, so a crashed daemon recovers its job
	// table — terminal jobs as views, queued and mid-run jobs by
	// re-entering admission under their original public IDs. Empty
	// disables journaling (the pre-durability behaviour).
	JournalDir string

	// Cost-aware admission. Each job's runtime and working set are
	// estimated at submit time from the paper's performance model
	// (perfmodel.Estimate) and calibrated against observed runtimes.
	MaxQueuedSec     float64 // max estimated seconds of queued work (0 = unlimited)
	MaxInflightBytes int64   // max estimated bytes of in-flight working set (0 = unlimited)

	// Fairness. Aging is the wait after which a queued job's effective
	// priority rises one class (0 = default 15s, < 0 disables aging).
	// QuotaRPS rate-limits submissions per client id with a token bucket
	// of depth QuotaBurst (0 = no quotas; burst defaults to max(1, 2·rps)).
	Aging      time.Duration
	QuotaRPS   float64
	QuotaBurst float64

	// EventLogCap bounds the per-job event log backing /events and
	// /stream: it is the replay window for late subscribers and
	// Last-Event-ID resumption (0 = default 1024).
	EventLogCap int

	// Logger receives the manager's structured lifecycle records (job
	// admitted / started / settled, each with job_id and trace_id fields).
	// nil discards them — library default, daemons wire obs.NewLogger.
	Logger *slog.Logger

	// testOnSlice, when non-nil, runs synchronously on the publishing
	// row-root goroutine after each slice event, while the job is still
	// mid-epilogue. Tests block here to observe the service with a slice
	// published but the job provably still running.
	testOnSlice func(job string, z int)

	// testOnPreview, when non-nil, runs synchronously on the worker
	// goroutine after the preview event is published, before a progressive
	// job's full-resolution pipeline starts. Tests block here to observe
	// the service with a preview available but zero full-resolution rounds
	// completed.
	testOnPreview func(job string, factor int)
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = 2
	}
	if o.QueueCap < 1 {
		o.QueueCap = 4 * o.Workers
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 1 << 30
	}
	if o.MaxJobs < 1 {
		o.MaxJobs = 1024
	}
	switch {
	case o.Aging == 0:
		o.Aging = 15 * time.Second
	case o.Aging < 0:
		o.Aging = 0 // aging disabled
	}
	if o.QuotaRPS > 0 && o.QuotaBurst <= 0 {
		o.QuotaBurst = math.Max(1, 2*o.QuotaRPS)
	}
	return o
}

// Manager is the reconstruction service: it owns the job table, the
// cost-aware priority queue, the worker pool, the shared PFS namespace tree
// and the result cache. One Manager serves many concurrent clients.
//
// Namespace layout inside the shared PFS:
//
//	ds/<hash>/proj_*      staged projection datasets, content-addressed and
//	                      shared by all jobs with identical scans
//	jobs/<id>/out/slice_* per-job output slices (each job's own namespace)
type Manager struct {
	opt    Options
	store  *pfs.PFS
	queue  *Queue
	cache  *Cache
	events *Bus

	mu            sync.Mutex
	jobs          map[string]*Job
	order         []string // submission order, for List
	seq           int64
	open          bool
	inflightBytes int64 // sum of charged jobs' estBytes (queued + running)
	chargedJobs   int   // jobs currently holding an admission charge

	costMu    sync.Mutex
	costScale float64 // EWMA of observed wall seconds per model second, from 1

	quotaMu sync.Mutex
	quota   map[string]*tokenBucket

	waitMu      sync.Mutex
	waits       [numPriorities][]float64 // ring of recent queue waits, seconds
	waitNext    [numPriorities]int
	waitCounts  [numPriorities]int64
	waitSamples int // ring capacity

	stageMu sync.Mutex
	staged  map[string]*stageState

	wg      sync.WaitGroup
	busy    atomic.Int64
	started time.Time

	// journal is the write-ahead job journal (nil when Options.JournalDir
	// is empty); crashed marks a simulated kill -9 (tests), after which
	// workers abandon whatever they pop instead of running it.
	journal *journal
	crashed atomic.Bool

	// Observability plane: the counters the hot paths bump live inside the
	// metrics registry (met), so the JSON /v1/metrics snapshot and the
	// Prometheus exposition at GET /metrics read the same cells; log carries
	// structured lifecycle records. Traces are assembled from the job record
	// on request (trace.go).
	met *metricsSet
	log *slog.Logger
}

type stageState struct {
	done chan struct{}
	err  error
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// NewManager starts a manager with opt.Workers worker goroutines. It is
// OpenManager with the error path folded into a panic — construction
// cannot fail unless Options.JournalDir is set, where opening or replaying
// the write-ahead journal can; daemons that journal use OpenManager.
func NewManager(opt Options) *Manager {
	m, err := OpenManager(opt)
	if err != nil {
		panic(err)
	}
	return m
}

// OpenManager starts a manager with opt.Workers worker goroutines,
// replaying the write-ahead journal first when Options.JournalDir is set:
// recovered jobs are in the table (and the queue) before the first worker
// or HTTP request sees the manager.
func OpenManager(opt Options) (*Manager, error) {
	opt = opt.withDefaults()
	m := &Manager{
		opt:         opt,
		store:       pfs.New(opt.PFS),
		queue:       NewQueue(opt.QueueCap, opt.MaxQueuedSec, opt.Aging),
		cache:       NewCache(opt.CacheBytes),
		events:      NewBus(opt.EventLogCap),
		jobs:        make(map[string]*Job),
		costScale:   1,
		quota:       make(map[string]*tokenBucket),
		waitSamples: 512,
		staged:      make(map[string]*stageState),
		open:        true,
		started:     time.Now(),
		log:         opt.Logger,
	}
	if m.log == nil {
		m.log = obs.NopLogger()
	}
	m.met = newMetricsSet(m)
	if opt.JournalDir != "" {
		jn, recovered, maxSeq, err := openJournal(opt.JournalDir)
		if err != nil {
			return nil, err
		}
		m.journal = jn
		m.seq = maxSeq
		m.recoverJobs(recovered)
	}
	for i := 0; i < opt.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// jAppend writes one journal record when journaling is on. Worker-side
// appends (start/terminal/delete) are best-effort: a failure is logged and
// counted, never fatal — the job's in-memory lifecycle proceeds and the
// worst case on a later replay is rerunning finished deterministic work.
// The submit path checks the error itself (fsync-before-ack).
func (m *Manager) jAppend(rec journalRecord) error {
	if m.journal == nil {
		return nil
	}
	err := m.journal.append(rec)
	switch {
	case err == nil:
		m.met.journalRecords.With(rec.T).Inc()
	case errors.Is(err, errJournalClosed):
		// Shutdown or simulated kill: the process is "gone"; drop silently.
	default:
		m.met.journalErrors.Inc()
		m.log.Error("journal append failed", "type", rec.T, "job_id", rec.ID, "err", err.Error())
	}
	return err
}

// recoverJobs readmits the journal's merged recovery set. Terminal jobs
// come back as metadata-only views (their volumes lived in the in-process
// PFS and cache, which a crash destroys; resubmitting the same spec
// re-derives them bit-exactly). Non-terminal jobs — queued or mid-run at
// the crash — re-enter the queue under their original public IDs.
func (m *Manager) recoverJobs(jobs []recoveredJob) {
	for i := range jobs {
		if err := m.recoverJob(&jobs[i]); err != nil {
			m.met.journalErrors.Inc()
			m.log.Error("journal replay: job not recovered", "job_id", jobs[i].ID, "err", err.Error())
		}
	}
}

func (m *Manager) recoverJob(r *recoveredJob) error {
	sub := r.submit
	rs, err := resolveSpec(*sub.Spec)
	if err != nil {
		return err
	}
	est, err := m.estimate(rs)
	if err != nil {
		return err
	}
	submitted := cmp.Or(parseJTime(sub.Submitted), time.Now())
	j := m.newJob(r.ID, rs, est, submitted, cmp.Or(sub.TraceID, api.NewTraceID()), sub.ParentSpan)
	j.recovered = true
	if t := r.term; t != nil {
		return m.apply(j, stateNew, replayEvent[r.State], nil, func() {
			j.err, j.cacheHit, j.verified, j.relRMSE = t.Error, t.CacheHit, t.Verified, t.RelRMSE
			j.times = stagesToTimes(t.Stages)
			j.started, j.finished = parseJTime(r.started), cmp.Or(parseJTime(t.Finished), j.submitted)
		})
	}
	if err := m.apply(j, stateNew, evRecover, nil, nil); err != nil {
		return err
	}
	// Re-enter admission under the original ID, bypassing the capacity and
	// cost budgets: this job was admitted once already and must not be lost
	// to a transiently smaller or busier queue.
	m.mu.Lock()
	m.chargeLocked(j, 1)
	m.mu.Unlock()
	m.queue.forcePush(j)
	return nil
}

// newJob builds a job record in stateNew from its resolved spec and cost
// estimate. Its first transition gives it a state.
func (m *Manager) newJob(id string, rs resolvedSpec, est perfmodel.Cost, submitted time.Time, traceID, parentSpan string) *Job {
	return &Job{
		ID:          id,
		Spec:        rs.spec,
		Priority:    rs.prio,
		submitted:   submitted,
		ph:          rs.ph,
		cfg:         rs.cfg,
		cacheKey:    rs.key,
		qual:        rs.qual,
		plan:        rs.plan,
		previewKey:  rs.prevKey,
		estModelSec: est.RunSec,
		estCost:     est.RunSec * m.scaleNow(),
		estBytes:    est.WorkingSetBytes,
		traceID:     traceID,
		parentSpan:  parentSpan,
	}
}

// Store exposes the backing PFS (tests and tooling).
func (m *Manager) Store() *pfs.PFS { return m.store }

// Events exposes the per-job event bus backing /events and /stream.
func (m *Manager) Events() *Bus { return m.events }

// Registry exposes the metrics registry backing both GET /metrics (text
// exposition) and the JSON /v1/metrics snapshot.
func (m *Manager) Registry() *obs.Registry { return m.met.reg }

// job returns the live job record for id.
func (m *Manager) job(id string) (*Job, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	return j, ok
}

// subscribe attaches a consumer to a job's event stream, replaying retained
// events with Seq > after. It owns the subscribe/DELETE race: Subscribe can
// recreate a topic a concurrent Delete just dropped, so the job table is
// re-checked afterwards and the stray topic dropped again — deleted jobs
// must never leak topics. Callers must Close the subscription.
func (m *Manager) subscribe(id string, after int64) (*Subscription, error) {
	sub := m.events.Subscribe(id, after)
	if _, ok := m.job(id); !ok {
		sub.Close()
		m.events.Drop(id)
		return nil, fmt.Errorf("job %q: %w", id, ErrNotFound)
	}
	return sub, nil
}

// datasetPrefix content-addresses the staged scan of a spec: jobs with the
// same phantom and geometry share one projection set on the PFS.
func datasetPrefix(spec Spec, cfg core.Config) string {
	probe := core.Config{Geometry: cfg.Geometry}
	probe.InputPrefix = spec.Phantom // fold the phantom into the hash
	return "ds/" + CacheKey(probe)[:16]
}

// takeToken charges one submission against the client's token bucket and
// reports whether it fit. Buckets refill at QuotaRPS tokens/s up to
// QuotaBurst; a client unseen for long enough simply finds a full bucket.
func (m *Manager) takeToken(client string) bool {
	if m.opt.QuotaRPS <= 0 {
		return true
	}
	now := time.Now()
	m.quotaMu.Lock()
	defer m.quotaMu.Unlock()
	b, ok := m.quota[client]
	if !ok {
		// Bound the table: drop buckets that have refilled to the brim
		// (they are indistinguishable from fresh ones).
		if len(m.quota) >= 4096 {
			for id, old := range m.quota {
				if now.Sub(old.last).Seconds()*m.opt.QuotaRPS >= m.opt.QuotaBurst {
					delete(m.quota, id)
				}
			}
		}
		b = &tokenBucket{tokens: m.opt.QuotaBurst, last: now}
		m.quota[client] = b
	}
	b.tokens = math.Min(m.opt.QuotaBurst, b.tokens+now.Sub(b.last).Seconds()*m.opt.QuotaRPS)
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// estimate prices a resolved spec for admission, per quality tier: full
// jobs cost the Sec. 4.2 model estimate as before; preview jobs cost only
// their decimated problem (the cheap admission class — a preview never
// charges the queue or byte budget for work it will not do); progressive
// jobs cost both tiers.
func (m *Manager) estimate(rs resolvedSpec) (perfmodel.Cost, error) {
	switch rs.qual {
	case progressive.Preview:
		return perfmodel.EstimatePreview(rs.cfg, rs.plan.Coarse, rs.plan.Factor)
	case progressive.Progressive:
		return perfmodel.EstimateProgressive(rs.cfg, rs.plan.Coarse, rs.plan.Factor)
	default:
		return perfmodel.Estimate(rs.cfg)
	}
}

// scaleNow returns the current model→wall-clock calibration factor.
func (m *Manager) scaleNow() float64 {
	m.costMu.Lock()
	defer m.costMu.Unlock()
	return m.costScale
}

// observeRuntime folds one completed run's observed wall-clock/model ratio
// into the calibration EWMA, so cost estimates converge to this machine's
// actual throughput instead of the paper's testbed constants.
func (m *Manager) observeRuntime(modelSec, wallSec float64) {
	if modelSec <= 0 || wallSec <= 0 {
		return
	}
	ratio := wallSec / modelSec
	m.costMu.Lock()
	m.costScale = 0.75*m.costScale + 0.25*ratio
	m.costMu.Unlock()
}

// recordWait adds one queue-wait observation for a priority class: the
// percentile ring behind /v1/metrics and the exposition histogram.
func (m *Manager) recordWait(p Priority, d time.Duration) {
	sec := d.Seconds()
	m.met.queueWait.With(p.String()).Observe(sec)
	m.waitMu.Lock()
	defer m.waitMu.Unlock()
	if len(m.waits[p]) < m.waitSamples {
		m.waits[p] = append(m.waits[p], sec)
	} else {
		m.waits[p][m.waitNext[p]] = sec
		m.waitNext[p] = (m.waitNext[p] + 1) % m.waitSamples
	}
	m.waitCounts[p]++
}

// chargeLocked takes (n = 1) or returns (n = -1) a job's admission charge
// of working-set bytes; callers hold m.mu. A job holds it exactly while
// queued or running.
func (m *Manager) chargeLocked(j *Job, n int) {
	m.inflightBytes += int64(n) * j.estBytes
	m.chargedJobs += n
	if m.chargedJobs == 0 {
		m.inflightBytes = 0 // clamp drift
	}
}

// Submit validates and admits a job. A result-cache hit completes the job
// instantly; otherwise the job is admitted against the queue capacity, the
// queued-work cost budget and the in-flight working-set budget (ErrQueueFull
// / ErrCostBudget / ErrWorkingSet — callers should retry with backoff) and
// against the client's rate quota (ErrQuota).
func (m *Manager) Submit(spec Spec) (View, error) {
	return m.SubmitWithTrace(spec, "")
}

// SubmitWithTrace is Submit carrying the caller's W3C traceparent header
// value: a parseable header makes the job a child of the caller's trace
// (one trace ID from SDK through router to backend); anything else mints a
// fresh trace so every job is traceable regardless of the caller.
func (m *Manager) SubmitWithTrace(spec Spec, traceparent string) (View, error) {
	traceID, parentSpan, tpErr := api.ParseTraceParent(traceparent)
	if tpErr != nil {
		traceID, parentSpan = api.NewTraceID(), ""
	}
	rs, err := resolveSpec(spec)
	if err != nil {
		return View{}, err
	}
	spec = rs.spec
	if !m.takeToken(spec.Client) {
		m.met.rejectedQuota.Inc()
		m.log.Warn("job rejected", "reason", "quota", "client", spec.Client, "trace_id", traceID)
		return View{}, fmt.Errorf("client %q: %w", spec.Client, ErrQuota)
	}
	est, err := m.estimate(rs)
	if err != nil {
		return View{}, err
	}

	m.mu.Lock()
	if !m.open {
		m.mu.Unlock()
		return View{}, ErrClosed
	}
	m.seq++
	id := fmt.Sprintf("j%08d", m.seq)
	if m.opt.NodeID != "" {
		id = m.opt.NodeID + "-" + id
	}
	j := m.newJob(id, rs, est, time.Now(), traceID, parentSpan)
	// A cached entry only satisfies a verify request if the run that
	// produced it was itself verified; otherwise the job runs (and its
	// verified entry replaces the cached one). The lookup key is quality-
	// aware (rs.key): a preview job hits only preview entries, and a
	// progressive job hitting its full-resolution entry completes outright —
	// the refined volume already exists, so no preview tier is owed.
	if e, ok := m.cache.Get(rs.key); ok && (!spec.Verify || e.Verified) {
		m.mu.Unlock()
		// A cache hit still gets a (degenerate) event stream and trace, so
		// streaming clients see a uniform lifecycle regardless of where the
		// volume came from. Its journal records are best-effort: the view
		// hands the client everything, and durability only decides whether a
		// restarted daemon still shows this ID. A new job is never refused.
		_ = m.apply(j, stateNew, evCacheHit, e, func() { j.cacheHit, j.finished = true, j.submitted })
		return j.snapshot(), nil
	}
	if m.opt.MaxInflightBytes > 0 && m.chargedJobs > 0 &&
		m.inflightBytes+j.estBytes > m.opt.MaxInflightBytes {
		m.mu.Unlock()
		m.met.rejectedBytes.Inc()
		m.log.Warn("job rejected", "reason", "working_set", "trace_id", traceID,
			"est_bytes", j.estBytes)
		return View{}, fmt.Errorf("job needs ~%d MiB against %d MiB in flight: %w",
			j.estBytes>>20, m.opt.MaxInflightBytes>>20, ErrWorkingSet)
	}
	// Admit BEFORE Push makes the job poppable: a worker can pick it up
	// instantly, its start needs the job queued, and its started event must
	// sequence after the opening one. The charge is taken before m.mu is
	// released, so a worker that finishes the job meanwhile waits for it
	// before giving it back. A new job is never refused.
	_ = m.apply(j, stateNew, evAdmit, nil, nil)
	if err := m.queue.Push(j); err != nil {
		m.mu.Unlock()
		m.events.Drop(j.ID) // never admitted: no stream to replay
		reason := "queue_full"
		switch {
		case errors.Is(err, ErrQueueFull):
			m.met.rejectedFull.Inc()
		case errors.Is(err, ErrCostBudget):
			m.met.rejectedCost.Inc()
			reason = "cost_budget"
		}
		m.log.Warn("job rejected", "reason", reason, "trace_id", traceID)
		return View{}, err
	}
	m.chargeLocked(j, 1)
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.met.admitted.Inc()
	pruned := m.pruneLocked()
	m.mu.Unlock()
	m.scrub(pruned)
	// fsync-before-ack: the submit record must be durable before the client
	// hears "accepted". On append failure the admission is compensated with
	// a best-effort cancel (a worker may already be running the job) and the
	// client gets an error to retry — an unjournaled accepted job would be
	// silently lost by the next restart, which is the one lie the journal
	// exists to prevent.
	j.mu.Lock()
	rec := j.recordLocked(recSubmit)
	j.mu.Unlock()
	if err := m.jAppend(rec); err != nil {
		_ = m.Cancel(j.ID)
		return View{}, fmt.Errorf("service: job not durable: %w", err)
	}
	m.log.Info("job admitted", "job_id", j.ID, "trace_id", traceID,
		"client", spec.Client, "priority", rs.prio.String(), "quality", rs.qual.String(),
		"est_cost_sec", j.estCost)
	return j.snapshot(), nil
}

// pruneLocked evicts the oldest terminal job records beyond MaxJobs so a
// long-lived daemon's job table stays bounded; callers must hold m.mu and
// pass the returned IDs to scrub. Live jobs are never pruned.
func (m *Manager) pruneLocked() []string {
	var pruned []string
	for i := 0; len(m.order) > m.opt.MaxJobs && i < len(m.order)-1; {
		id := m.order[i]
		j, ok := m.jobs[id]
		if ok && !j.State().Terminal() {
			i++
			continue
		}
		delete(m.jobs, id)
		m.order = append(m.order[:i], m.order[i+1:]...)
		pruned = append(pruned, id)
	}
	return pruned
}

// scrub deletes pruned jobs' output namespaces from the PFS, their event
// streams from the bus and their journal presence (a delete record now,
// physically dropped at the next boot compaction).
func (m *Manager) scrub(ids []string) {
	for _, id := range ids {
		m.events.Drop(id)
		for _, path := range m.store.List("jobs/" + id + "/") {
			m.store.Delete(path)
		}
		_ = m.jAppend(journalRecord{T: recDelete, ID: id})
	}
}

// Get returns a job's current view.
func (m *Manager) Get(id string) (View, bool) {
	j, ok := m.job(id)
	if !ok {
		return View{}, false
	}
	return j.snapshot(), true
}

// resultFor returns a job's terminal result entry, falling through to the
// cache when the job record does not hold one itself (a done job replayed
// from the journal). nil when no result is reachable.
func (m *Manager) resultFor(j *Job) *Entry {
	j.mu.Lock()
	e, st := j.result, j.state
	j.mu.Unlock()
	if e != nil || st != StateDone {
		return e
	}
	e, _ = m.cache.Get(j.cacheKey) // nil on a miss
	return e
}

// Volume returns a done job's reconstructed volume.
func (m *Manager) Volume(id string) (*volume.Volume, error) {
	j, ok := m.job(id)
	if !ok {
		return nil, fmt.Errorf("job %q: %w", id, ErrNotFound)
	}
	e := m.resultFor(j)
	if e == nil || e.Volume == nil {
		return nil, fmt.Errorf("service: job %s has no result (state %s)", id, j.State())
	}
	return e.Volume, nil
}

// List returns all jobs in submission order.
func (m *Manager) List() []View {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	out := make([]View, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	return out
}

// Cancel stops a job: a queued job is withdrawn immediately, a running job
// has its context cancelled (the MPI world aborts and the pipeline drains).
// Cancelling a job that already reached a terminal state reports
// ErrAlreadyTerminal.
func (m *Manager) Cancel(id string) error {
	j, ok := m.job(id)
	if !ok {
		return fmt.Errorf("job %q: %w", id, ErrNotFound)
	}
	for {
		j.mu.Lock()
		st, stop := j.state, j.cancel
		j.mu.Unlock()
		switch {
		case st == StateRunning:
			stop() // the run unwinds, and runJob applies the cancel
			return nil
		case st.Terminal():
			return fmt.Errorf("job %s is %s: %w", id, st, ErrAlreadyTerminal)
		}
		if m.apply(j, StateQueued, evCancel, nil, nil) == nil {
			m.queue.Remove(id) // best-effort: a worker may have popped it already
			return nil
		}
		// A worker started the job in between: look again.
	}
}

// Delete removes a terminal job's record and its output namespace from the
// PFS. Cached results survive (they may serve future submissions).
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if ok && !j.State().Terminal() {
		m.mu.Unlock()
		return fmt.Errorf("service: job %s is not terminal; cancel it first", id)
	}
	if ok {
		delete(m.jobs, id)
		m.order = slices.DeleteFunc(m.order, func(o string) bool { return o == id })
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("job %q: %w", id, ErrNotFound)
	}
	m.scrub([]string{id})
	return nil
}

// worker is one slot of the pool: it pops jobs until the queue is closed
// and drained.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		j, ok := m.queue.Pop()
		if !ok {
			return
		}
		if !m.crashed.Load() { // a simulated kill -9 abandons the pop
			m.runJob(j)
		}
	}
}

// runJob drives one job through running → terminal.
func (m *Manager) runJob(j *Job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel's queue.Remove is best-effort and loses the race against a
	// concurrent Pop, so a job the client was just told is cancelled can
	// surface here: the start is refused, and the job never runs.
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
	if err := m.stageDataset(ctx, j); err != nil {
		return nil, err
	}
	j.mu.Lock()
	j.tRun0 = time.Now()
	j.mu.Unlock()
	// The preview tier runs first, from the same staged dataset the full
	// pipeline will read: for preview-quality jobs it IS the job; for
	// progressive jobs it is streamed (EventPreview, the leading stream
	// parts) before the first full-resolution round completes.
	if j.qual.WantsPreview() {
		pe, err := m.buildPreview(ctx, j)
		if err != nil {
			return nil, err
		}
		if j.qual == progressive.Preview {
			if j.Spec.Verify {
				// Verify a copy: pe may be the live cached entry, and the
				// verification fields must not mutate under concurrent
				// readers. runJob's Put replaces the cache entry with the
				// verified copy.
				ve := *pe
				pe = &ve
				if err := m.verifyPreview(ctx, j, pe); err != nil {
					return nil, fmt.Errorf("verification: %w", err)
				}
			}
			return pe, nil
		}
	}
	cfg := j.cfg
	cfg.OutputPrefix = j.outPrefix()
	cfg.Progress = func(done, total int) {
		j.mu.Lock()
		j.done, j.total = done, total
		j.mu.Unlock()
		m.events.Publish(j.ID, Event{Type: EventRound, Done: done, Total: total})
	}
	// Publish each slice the moment its row root lands it on the PFS: the
	// event precedes the epilogue's next write, so by the time a streaming
	// client reacts the payload is durably readable.
	cfg.SliceWritten = func(z, written, total int) {
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
	entry := &Entry{Volume: res.Volume, Times: res.Max, BytesSent: res.BytesSent}
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

// stageDataset synthesizes and stores the projections for a job's scan,
// deduplicated across jobs by content hash (single-flight). The leader
// stages under its own job's context, checking it between projections, so
// a cancelled job (or a shutdown) stops synthesizing and writing mid-scan;
// a partial dataset is deleted and the single-flight slot is released. A
// follower whose leader was cancelled retries as the new leader, so one
// cancelled job never poisons the dataset for the jobs waiting on it.
func (m *Manager) stageDataset(ctx context.Context, j *Job) error {
	key := j.cfg.InputPrefix
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		m.stageMu.Lock()
		st, ok := m.staged[key]
		if !ok {
			st = &stageState{done: make(chan struct{})}
			m.staged[key] = st
			m.stageMu.Unlock()
			st.err = m.renderAndStage(ctx, j, key)
			if st.err != nil { // allow a later job to retry
				for _, path := range m.store.List(key + "/") {
					m.store.Delete(path) // no one may read a partial scan
				}
				m.stageMu.Lock()
				delete(m.staged, key)
				m.stageMu.Unlock()
			}
			close(st.done)
			return st.err
		}
		m.stageMu.Unlock()
		select {
		case <-st.done:
			if st.err != nil && errors.Is(st.err, context.Canceled) && ctx.Err() == nil {
				continue // the leader was cancelled, we were not: take over
			}
			return st.err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// renderAndStage synthesizes the scan's projections and writes them to the
// PFS in one engine.ParallelRange: each worker renders its projections into
// one pooled image and writes each straight from it, so the scan is never
// held whole. ctx is checked between projections, and a failed write stops
// every worker at its next one. The call returns only after every worker's
// last write, so the caller's delete of a partial dataset cannot race a
// late write.
func (m *Manager) renderAndStage(ctx context.Context, j *Job, key string) error {
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
				_, err = m.store.WriteProjection(key, s, img)
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

// The Metrics, AdmissionStats and WaitStats wire types live in pkg/api (see
// wire.go).

// waitStats snapshots the per-class wait percentiles.
func (m *Manager) waitStats() map[string]WaitStats {
	out := make(map[string]WaitStats, numPriorities)
	m.waitMu.Lock()
	defer m.waitMu.Unlock()
	for p := Priority(0); p < numPriorities; p++ {
		if m.waitCounts[p] == 0 {
			continue
		}
		s := append([]float64(nil), m.waits[p]...)
		sort.Float64s(s)
		pct := func(q float64) float64 { return s[int(q*float64(len(s)-1))] }
		out[p.String()] = WaitStats{Count: m.waitCounts[p], P50: pct(0.50), P90: pct(0.90), P99: pct(0.99)}
	}
	return out
}

// Metrics returns a snapshot of queue, pool, cache and storage counters.
func (m *Manager) Metrics() Metrics {
	states := map[string]int{}
	m.mu.Lock()
	for _, j := range m.jobs {
		states[string(j.State())]++
	}
	inflight := m.inflightBytes
	m.mu.Unlock()
	up := time.Since(m.started).Seconds()
	done := m.met.completed.Value()
	ps := m.store.Stats()
	mt := Metrics{
		UptimeSec:     up,
		Workers:       m.opt.Workers,
		BusyWorkers:   int(m.busy.Load()),
		QueueDepth:    m.queue.Len(),
		QueueCap:      m.queue.Cap(),
		QueueCostSec:  m.queue.CostSec(),
		MaxQueuedSec:  m.queue.MaxCostSec(),
		InflightBytes: inflight,
		MaxInflight:   m.opt.MaxInflightBytes,
		PoolBytes:     engine.InUseBytes(),
		CostScale:     m.scaleNow(),
		Jobs:          states,
		Completed:     done,
		CacheHits:     m.met.cacheHits.Value(),
		Failed:        m.met.failed.Value(),
		Cancelled:     m.met.cancelled.Value(),
		Admission: AdmissionStats{
			Admitted:      m.met.admitted.Value(),
			RejectedFull:  m.met.rejectedFull.Value(),
			RejectedCost:  m.met.rejectedCost.Value(),
			RejectedBytes: m.met.rejectedBytes.Value(),
			RejectedQuota: m.met.rejectedQuota.Value(),
		},
		WaitSec:    m.waitStats(),
		Cache:      m.cache.Stats(),
		PFSReadMB:  float64(ps.BytesRead) / (1 << 20),
		PFSWriteMB: float64(ps.BytesWritten) / (1 << 20),
		PFSObjects: ps.Objects,
		EventDrops: m.events.Drops(),
	}
	if up > 0 {
		mt.JobsPerSec = float64(done) / up
	}
	return mt
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
	m.queue.Close()
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
