package service

import (
	"cmp"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ifdk/internal/hpc/pfs"
	"ifdk/internal/obs"
	"ifdk/pkg/api"
)

// ErrAlreadyTerminal is reported by Cancel when the job is already in a
// terminal state; DELETE handlers fall through to record deletion on it.
var ErrAlreadyTerminal = errors.New("service: job already terminal")

// ErrNotFound is reported for operations on unknown job IDs.
var ErrNotFound = errors.New("service: no such job")

// Options configures a Manager.
type Options struct {
	Workers    int   // concurrent reconstructions (default 2)
	QueueCap   int   // bounded admission queue, jobs (default 4·Workers)
	CacheBytes int64 // result-cache budget, bounding settled results (default 1 GiB; < 0 disables, and none are served)

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
	// transition is appended to a write-ahead journal in this directory,
	// fsynced before the submit is acked, and replayed on the next start
	// (journal.go). Empty disables journaling.
	JournalDir string

	// Cost-aware admission. Each job's runtime and working set are
	// estimated at submit time from the paper's performance model
	// (perfmodel.Estimate) and calibrated against observed runtimes.
	MaxQueuedSec     float64 // max estimated seconds of queued work (0 = unlimited)
	MaxInflightBytes int64   // max estimated bytes of in-flight working set (0 = unlimited)

	// Fairness. Aging is the wait after which a queued job's effective
	// priority rises one class (0 = default 15s, < 0 disables aging).
	// QuotaRPS rate-limits submissions per client id with a token bucket
	// of depth max(1, 2·QuotaRPS) (0 = no quotas).
	Aging    time.Duration
	QuotaRPS float64

	// EventLogCap bounds the per-job event log backing /events and
	// /stream: it is the replay window for late subscribers and
	// Last-Event-ID resumption (0 = default 1024).
	EventLogCap int

	// Logger receives the manager's structured lifecycle records (job
	// admitted / started / settled, each with job_id and trace_id fields).
	// nil discards them — library default, daemons wire obs.NewLogger.
	Logger *slog.Logger

	// Test hooks, run synchronously where tests block to observe a running
	// job: testOnSlice on the row root after each slice event, mid-epilogue;
	// testOnPreview on the worker after the preview event, before a
	// progressive job's full-resolution pipeline starts. testMaxJobs, when
	// positive, shrinks the job table below maxJobs.
	testOnSlice   func(job string, z int)
	testOnPreview func(job string, factor int)
	testMaxJobs   int
}

// maxJobs bounds the job table: past it, the oldest terminal records are
// pruned.
const maxJobs = 1024

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
	if o.Aging == 0 {
		o.Aging = 15 * time.Second // < 0 stays, and disables aging
	}
	return o
}

// Manager is the reconstruction service. It composes admission (the
// budgets, quotas, queue and cost calibration), datasets (the staged scans
// on the PFS), the result cache, which alone holds a settled job's bytes,
// and the event bus, and it keeps the job table, the lifecycle (apply), the
// worker pool, recovery and shutdown. A settled record keeps its keys, and
// every read of its volume or preview resolves them in the cache. A job's
// output never touches the PFS: its row roots hand each slice to the job's
// volume (Job.out), which becomes its result. One Manager serves many
// concurrent clients.
//
// Lock order: m.mu before a Job's mu, and either before the locks of
// admission and datasets, which take no other lock. Neither of those two is
// held across a journal append, a bus publish or a PFS write.
type Manager struct {
	opt       Options
	store     *pfs.PFS
	admission *admission
	datasets  *datasets
	cache     *Cache
	events    *Bus

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // submission order, for List
	seq   int64
	open  bool

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
	store := pfs.New(opt.PFS)
	m := &Manager{
		opt:       opt,
		store:     store,
		admission: newAdmission(opt),
		datasets:  &datasets{store: store, staged: make(map[string]*dataset)},
		cache:     NewCache(opt.CacheBytes),
		events:    NewBus(opt.EventLogCap),
		jobs:      make(map[string]*Job),
		open:      true,
		started:   time.Now(),
		log:       opt.Logger,
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

// newJob builds a job record in stateNew from its resolved spec and price.
// Its first transition gives it a state. The record holds a reference to
// its scan until scrub gives it back, or until the Submit that built it
// refuses it.
func (m *Manager) newJob(id string, rs resolvedSpec, est price, submitted time.Time, traceID, parentSpan string) *Job {
	return &Job{
		ID:           id,
		resolvedSpec: rs,
		submitted:    submitted,
		scan:         m.datasets.ref(rs.cfg.InputPrefix),
		est:          est,
		traceID:      traceID,
		parentSpan:   parentSpan,
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

// Submit validates and admits a job. A result-cache hit completes the job
// instantly; otherwise admission checks the client's rate quota (ErrQuota),
// then the budgets (ErrWorkingSet, ErrQueueFull, ErrCostBudget) — callers
// should retry each with backoff.
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
	if !m.admission.takeToken(spec.Client) {
		m.met.rejectedQuota.Inc()
		m.log.Warn("job rejected", "reason", "quota", "client", spec.Client, "trace_id", traceID)
		return View{}, fmt.Errorf("client %q: %w", spec.Client, ErrQuota)
	}
	est, err := m.admission.estimate(rs)
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
	// A cached entry satisfies a verify request only if its run verified;
	// otherwise the job runs, and its verified entry replaces the cached
	// one. The key is quality-aware (rs.cacheKey): a preview job hits only
	// preview entries, and a progressive job that hits its full-resolution
	// entry completes outright, owing no preview tier.
	if e, ok := m.cache.Get(rs.cacheKey); ok && (!spec.Verify || e.Verified) {
		m.mu.Unlock()
		// A cache hit still gets a (degenerate) event stream and trace, so
		// streaming clients see a uniform lifecycle. Its journal records are
		// best-effort: the view hands the client everything, and durability
		// only decides whether a restarted daemon still shows this ID.
		_ = m.apply(j, stateNew, evCacheHit, e, func() { j.cacheHit, j.finished = true, j.submitted })
		return j.snapshot(), nil
	}
	// Admit BEFORE push makes the job poppable: a worker can pick it up
	// instantly, its start needs the job queued, and its started event must
	// sequence after the opening one. A new job is never refused.
	_ = m.apply(j, stateNew, evAdmit, nil, nil)
	if err := m.admission.push(j); err != nil {
		m.mu.Unlock()
		m.events.Drop(j.ID) // never admitted: no stream to replay
		m.datasets.unref(j)
		reason, count := "queue_full", m.met.rejectedFull // push is never closed while m.open
		if errors.Is(err, ErrCostBudget) {
			reason, count = "cost_budget", m.met.rejectedCost
		} else if errors.Is(err, ErrWorkingSet) {
			reason, count = "working_set", m.met.rejectedBytes
		}
		count.Inc()
		m.log.Warn("job rejected", "reason", reason, "trace_id", traceID, "est_bytes", j.est.bytes)
		return View{}, err
	}
	m.met.admitted.Inc()
	pruned := m.enterLocked(j)
	m.mu.Unlock()
	m.scrub(pruned)
	// fsync-before-ack: the submit record is durable before the client hears
	// "accepted". On append failure a cancel compensates the admission (a
	// worker may already run the job) and the client gets an error to retry:
	// an unjournaled accepted job would be lost by the next restart.
	j.mu.Lock()
	rec := j.recordLocked(recSubmit)
	j.mu.Unlock()
	if err := m.jAppend(rec); err != nil {
		_ = m.Cancel(j.ID)
		return View{}, fmt.Errorf("service: job not durable: %w", err)
	}
	m.log.Info("job admitted", "job_id", j.ID, "trace_id", traceID,
		"client", spec.Client, "priority", rs.prio.String(), "quality", spec.Quality,
		"est_cost_sec", j.est.cost)
	return j.snapshot(), nil
}

// enterLocked adds j to the job table and evicts the oldest terminal
// records beyond maxJobs, so a long-lived daemon's table stays bounded;
// callers must hold m.mu and pass the evicted records to scrub. Live jobs
// are never pruned.
func (m *Manager) enterLocked(j *Job) []*Job {
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	var pruned []*Job
	limit := cmp.Or(m.opt.testMaxJobs, maxJobs)
	for i := 0; len(m.order) > limit && i < len(m.order)-1; {
		old := m.jobs[m.order[i]]
		if !old.State().Terminal() {
			i++
			continue
		}
		delete(m.jobs, old.ID)
		m.order = append(m.order[:i], m.order[i+1:]...)
		pruned = append(pruned, old)
	}
	return pruned
}

// scrub forgets records that left the job table: their event streams, their
// references to their scans, and their journal presence (a delete record
// now, physically dropped at the next boot compaction).
func (m *Manager) scrub(jobs []*Job) {
	for _, j := range jobs {
		m.events.Drop(j.ID)
		m.datasets.unref(j)
		_ = m.jAppend(journalRecord{T: recDelete, ID: j.ID})
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

// List returns all jobs in submission order.
func (m *Manager) List() []View {
	m.mu.Lock()
	jobs := make([]*Job, len(m.order))
	for i, id := range m.order {
		jobs[i] = m.jobs[id]
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
			return nil // its release takes it off the queue, unless a worker popped it first
		}
		// A worker started the job in between: look again.
	}
}

// Delete removes a terminal job's record, giving back its reference to its
// scan. Cached results survive (they may serve future submissions).
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
	m.scrub([]*Job{j})
	return nil
}
