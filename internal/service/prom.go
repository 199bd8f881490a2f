package service

import (
	"runtime"
	"runtime/metrics"
	"strconv"
	"time"

	"ifdk/internal/ct/kernels"
	"ifdk/internal/engine"
	"ifdk/internal/obs"
)

// metricsSet is the Manager's obs.Registry plus the handful of counters the
// hot paths bump directly. Everything else — queue depth, pool bytes, cache
// occupancy, PFS traffic, event drops — is registered as a func-backed view
// over the owning subsystem's own counters, so the Prometheus exposition at
// GET /metrics and the JSON snapshot at /v1/metrics read the same source
// and can never drift.
type metricsSet struct {
	reg *obs.Registry

	completed *obs.Counter // real reconstructions finished
	failed    *obs.Counter
	cancelled *obs.Counter
	cacheHits *obs.Counter // submissions satisfied from the result cache

	// admission decisions, one child per decision label
	admitted      *obs.Counter
	rejectedFull  *obs.Counter
	rejectedCost  *obs.Counter
	rejectedBytes *obs.Counter
	rejectedQuota *obs.Counter

	stageSeconds *obs.HistogramVec // per pipeline stage, observed at job success; dataset at staging
	queueWait    *obs.HistogramVec // per priority class, observed at job start

	// write-ahead journal (Options.JournalDir != "")
	journalRecords *obs.CounterVec // appended records by type
	journalErrors  *obs.Counter    // failed appends / unrecoverable replayed jobs
	recovered      *obs.CounterVec // jobs recovered at boot, by outcome

	// preview tier (quality = preview | progressive)
	previewsBuilt *obs.Counter   // preview volumes reconstructed
	previewHits   *obs.Counter   // preview tiers served from the result cache
	previewSec    *obs.Histogram // preview-phase latency (build or cache fetch)
}

// newMetricsSet registers the service's metric families against m's
// subsystems. Call after the Manager's queue, cache, bus and store are in
// place.
func newMetricsSet(m *Manager) *metricsSet {
	r := obs.NewRegistry()
	s := &metricsSet{reg: r}

	s.completed = r.Counter("ifdk_jobs_completed_total", "Real reconstructions finished (cache hits excluded).")
	s.cacheHits = r.Counter("ifdk_jobs_cache_hits_total", "Submissions satisfied instantly from the result cache.")
	s.failed = r.Counter("ifdk_jobs_failed_total", "Jobs that reached the failed state.")
	s.cancelled = r.Counter("ifdk_jobs_cancelled_total", "Jobs cancelled by the client or shutdown.")

	adm := r.CounterVec("ifdk_admission_total", "Admission decisions by outcome.", "decision")
	s.admitted = adm.With("admitted")
	s.rejectedFull = adm.With("rejected_full")
	s.rejectedCost = adm.With("rejected_cost")
	s.rejectedBytes = adm.With("rejected_bytes")
	s.rejectedQuota = adm.With("rejected_quota")

	s.stageSeconds = r.HistogramVec("ifdk_stage_seconds",
		"Per-stage pipeline latency, observed per completed job: load to backproject on the worst rank; compute, reduce, store and total on the row root that finished last, so they add up. dataset is observed per job that rendered and staged its scan: its stage.dataset span.", nil, "stage")
	s.queueWait = r.HistogramVec("ifdk_queue_wait_seconds",
		"Queue wait from admission to worker pickup, by priority class.", nil, "class")

	s.journalRecords = r.CounterVec("ifdk_journal_records_total",
		"Write-ahead journal records appended and fsynced, by type.", "type")
	s.journalErrors = r.Counter("ifdk_journal_errors_total",
		"Journal appends that failed and journaled jobs that could not be recovered.")
	s.recovered = r.CounterVec("ifdk_journal_recovered_total",
		"Jobs rebuilt from the journal at boot: requeued (re-entered admission) or terminal (view only).",
		"outcome")

	pv := r.CounterVec("ifdk_previews_total",
		"Preview tiers completed, by source (built = reconstructed, cache = served from the result cache).",
		"source")
	s.previewsBuilt = pv.With("built")
	s.previewHits = pv.With("cache")
	s.previewSec = r.Histogram("ifdk_preview_seconds",
		"Preview-phase latency from worker pickup to the preview event.",
		[]float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5})

	r.GaugeVec("ifdk_build_info",
		"Always 1; the labels name what this process runs on: the kernels' instruction tier, the Go release, GOMAXPROCS.",
		"isa", "goversion", "gomaxprocs").
		With(kernels.ISA(), runtime.Version(), strconv.Itoa(runtime.GOMAXPROCS(0))).Set(1)
	r.GaugeFunc("ifdk_uptime_seconds", "Seconds since the manager started.",
		func() float64 { return time.Since(m.started).Seconds() })
	r.GaugeFunc("ifdk_workers", "Configured worker pool size.",
		func() float64 { return float64(m.opt.Workers) })
	r.GaugeFunc("ifdk_busy_workers", "Workers currently running a reconstruction.",
		func() float64 { return float64(m.busy.Load()) })
	r.GaugeFunc("ifdk_queue_depth", "Jobs waiting in the admission queue.",
		func() float64 { return float64(m.admission.state().queued) })
	r.GaugeFunc("ifdk_queue_capacity", "Admission queue capacity, jobs.",
		func() float64 { return float64(m.admission.state().capacity) })
	r.GaugeFunc("ifdk_queue_cost_seconds", "Estimated seconds of queued work.",
		func() float64 { return m.admission.state().cost })
	r.GaugeFunc("ifdk_queue_cost_budget_seconds", "Queued-work cost budget (0 = unlimited).",
		func() float64 { return m.admission.state().maxCost })
	r.GaugeFunc("ifdk_inflight_est_bytes", "Estimated working set of admitted jobs.",
		func() float64 { return float64(m.admission.state().bytes) })
	r.GaugeFunc("ifdk_inflight_budget_bytes", "In-flight working-set budget (0 = unlimited).",
		func() float64 { return float64(m.admission.state().maxBytes) })
	r.GaugeFunc("ifdk_pool_in_use_bytes", "Bytes checked out of the engine buffer pools.",
		func() float64 { return float64(engine.InUseBytes()) })
	r.GaugeFunc("ifdk_cost_scale", "Learned wall-seconds per model-second calibration.",
		func() float64 { return m.admission.state().scale })
	r.GaugeFunc("ifdk_jobs_per_sec", "Completed real reconstructions per uptime second.",
		func() float64 {
			if up := time.Since(m.started).Seconds(); up > 0 {
				return float64(s.completed.Value()) / up
			}
			return 0
		})
	r.SampleFunc("ifdk_jobs", "Tracked jobs by lifecycle state.", obs.TypeGauge, []string{"state"},
		func() []obs.Sample {
			var out []obs.Sample
			for st, n := range m.jobStates() {
				out = append(out, obs.Sample{Labels: []string{st}, Value: float64(n)})
			}
			return out
		})

	r.CounterFunc("ifdk_cache_hits_total", "Admission and preview-tier result-cache lookups that hit.",
		func() float64 { return float64(m.cache.Stats().Hits) })
	r.CounterFunc("ifdk_cache_misses_total", "Admission and preview-tier result-cache lookups that missed.",
		func() float64 { return float64(m.cache.Stats().Misses) })
	r.GaugeFunc("ifdk_cache_entries", "Result-cache entries retained.",
		func() float64 { return float64(m.cache.Stats().Entries) })
	r.GaugeFunc("ifdk_cache_bytes", "Result-cache bytes retained.",
		func() float64 { return float64(m.cache.Stats().Bytes) })
	r.GaugeFunc("ifdk_cache_max_bytes", "Result-cache byte budget.",
		func() float64 { return float64(m.cache.Stats().MaxBytes) })

	r.CounterFunc("ifdk_pfs_read_bytes_total", "Bytes read from the simulated PFS.",
		func() float64 { return float64(m.store.Stats().BytesRead) })
	r.CounterFunc("ifdk_pfs_write_bytes_total", "Bytes written to the simulated PFS.",
		func() float64 { return float64(m.store.Stats().BytesWritten) })
	r.GaugeFunc("ifdk_pfs_objects", "Objects currently stored on the simulated PFS.",
		func() float64 { return float64(m.store.Stats().Objects) })
	r.GaugeFunc("ifdk_pfs_held_bytes", "Bytes currently held by the objects on the simulated PFS.",
		func() float64 { return float64(m.store.Stats().Bytes) })

	r.CounterFunc("ifdk_event_drops_total", "Events discarded by bounded per-job logs.",
		func() float64 { return float64(m.events.Drops()) })

	// The Go runtime, read through runtime/metrics at scrape time: the heap
	// the last GC left live against the goal the next GC runs at is what
	// the process's resident size follows, and the free heap not yet
	// released to the OS is what it holds beyond that.
	r.GaugeFunc("ifdk_go_heap_live_bytes", "Heap bytes live after the last GC (runtime/metrics /gc/heap/live:bytes).",
		func() float64 { return runtimeMetric("/gc/heap/live:bytes") })
	r.GaugeFunc("ifdk_go_heap_goal_bytes", "Heap size at which the next GC starts (/gc/heap/goal:bytes).",
		func() float64 { return runtimeMetric("/gc/heap/goal:bytes") })
	r.GaugeFunc("ifdk_go_heap_free_bytes", "Free heap bytes still held from the OS, which count toward the resident size (/memory/classes/heap/free:bytes).",
		func() float64 { return runtimeMetric("/memory/classes/heap/free:bytes") })
	r.GaugeFunc("ifdk_go_heap_released_bytes", "Free heap bytes returned to the OS (/memory/classes/heap/released:bytes).",
		func() float64 { return runtimeMetric("/memory/classes/heap/released:bytes") })
	r.CounterFunc("ifdk_go_gc_cpu_seconds_total", "Estimated CPU seconds spent in GC (/cpu/classes/gc/total:cpu-seconds).",
		func() float64 { return runtimeMetric("/cpu/classes/gc/total:cpu-seconds") })
	r.GaugeFunc("ifdk_go_goroutines", "Live goroutines (/sched/goroutines:goroutines).",
		func() float64 { return runtimeMetric("/sched/goroutines:goroutines") })

	return s
}

// runtimeMetric reads one runtime/metrics sample as a float64.
func runtimeMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch s[0].Value.Kind() {
	case metrics.KindUint64:
		return float64(s[0].Value.Uint64())
	case metrics.KindFloat64:
		return s[0].Value.Float64()
	}
	return 0
}

// count bumps the lifecycle counter a transition names.
func (s *metricsSet) count(c counter) {
	switch c {
	case countCompleted:
		s.completed.Inc()
	case countFailed:
		s.failed.Inc()
	case countCancelled:
		s.cancelled.Inc()
	case countCacheHit:
		s.cacheHits.Inc()
	case countRequeued:
		s.recovered.With("requeued").Inc()
	case countRestored:
		s.recovered.With("terminal").Inc()
	}
}

// observeStages feeds one completed job's stage clock into the per-stage
// latency histograms.
func (s *metricsSet) observeStages(st Stages) {
	for _, o := range []struct {
		stage string
		sec   float64
	}{
		{"load", st.Load}, {"filter", st.Filter}, {"allgather", st.AllGather},
		{"backproject", st.Backproject}, {"compute", st.Compute},
		{"reduce", st.Reduce}, {"store", st.Store}, {"total", st.Total},
	} {
		s.stageSeconds.With(o.stage).Observe(o.sec)
	}
}

// jobStates tallies the job table by lifecycle state, for /v1/metrics and
// the ifdk_jobs family alike.
func (m *Manager) jobStates() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	states := map[string]int{}
	for _, j := range m.jobs {
		states[string(j.State())]++
	}
	return states
}

// Metrics returns a snapshot of queue, pool, cache and storage counters.
func (m *Manager) Metrics() Metrics {
	a := m.admission.state()
	up := time.Since(m.started).Seconds()
	done := m.met.completed.Value()
	ps := m.store.Stats()
	mt := Metrics{
		UptimeSec:     up,
		Workers:       m.opt.Workers,
		BusyWorkers:   int(m.busy.Load()),
		QueueDepth:    a.queued,
		QueueCap:      a.capacity,
		QueueCostSec:  a.cost,
		MaxQueuedSec:  a.maxCost,
		InflightBytes: a.bytes,
		MaxInflight:   a.maxBytes,
		PoolBytes:     engine.InUseBytes(),
		CostScale:     a.scale,
		Jobs:          m.jobStates(),
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
		WaitSec:    m.admission.waitStats(),
		Cache:      m.cache.Stats(),
		PFSReadMB:  float64(ps.BytesRead) / (1 << 20),
		PFSWriteMB: float64(ps.BytesWritten) / (1 << 20),
		PFSObjects: ps.Objects,
		PFSHeldMB:  float64(ps.Bytes) / (1 << 20),
		EventDrops: m.events.Drops(),
	}
	if up > 0 {
		mt.JobsPerSec = float64(done) / up
	}
	return mt
}
