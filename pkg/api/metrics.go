package api

// AdmissionStats counts admission decisions since startup.
type AdmissionStats struct {
	Admitted      int64 `json:"admitted"`       // jobs that entered the queue
	RejectedFull  int64 `json:"rejected_full"`  // queue at job-count capacity
	RejectedCost  int64 `json:"rejected_cost"`  // queued-work seconds budget
	RejectedBytes int64 `json:"rejected_bytes"` // in-flight working-set budget
	RejectedQuota int64 `json:"rejected_quota"` // per-client rate quota
}

// WaitStats summarizes recent queue waits for one priority class.
type WaitStats struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50_sec"`
	P90   float64 `json:"p90_sec"`
	P99   float64 `json:"p99_sec"`
}

// CacheStats is the result cache's counters snapshot. Bytes never exceeds
// MaxBytes: an evicted entry is dropped.
type CacheStats struct {
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// Metrics is the service-level counters snapshot served by /v1/metrics. A
// front router serves the same shape, aggregated over its live backends, so
// dashboards point at either interchangeably.
type Metrics struct {
	UptimeSec     float64              `json:"uptime_sec"`
	Workers       int                  `json:"workers"`
	BusyWorkers   int                  `json:"busy_workers"`
	QueueDepth    int                  `json:"queue_depth"`
	QueueCap      int                  `json:"queue_cap"`
	QueueCostSec  float64              `json:"queue_cost_sec"`           // estimated seconds of queued work
	MaxQueuedSec  float64              `json:"max_queued_sec,omitempty"` // cost budget (0 = unlimited)
	InflightBytes int64                `json:"inflight_est_bytes"`       // estimated working set of admitted jobs
	MaxInflight   int64                `json:"max_inflight_bytes,omitempty"`
	PoolBytes     int64                `json:"pool_in_use_bytes"` // measured: engine buffer pools
	CostScale     float64              `json:"cost_scale"`        // learned wall-sec per model-sec
	Jobs          map[string]int       `json:"jobs"`
	Completed     int64                `json:"completed"` // real reconstructions only
	CacheHits     int64                `json:"cache_hits"`
	Failed        int64                `json:"failed"`
	Cancelled     int64                `json:"cancelled"`
	JobsPerSec    float64              `json:"jobs_per_sec"` // real reconstructions per second
	Admission     AdmissionStats       `json:"admission"`
	WaitSec       map[string]WaitStats `json:"wait_sec"` // per-priority-class queue waits
	Cache         CacheStats           `json:"cache"`
	PFSReadMB     float64              `json:"pfs_read_mb"`
	PFSWriteMB    float64              `json:"pfs_write_mb"`
	PFSObjects    int                  `json:"pfs_objects"`
	EventDrops    int64                `json:"event_drops"` // bus events discarded by bounded per-job logs

	// Backends is filled only by a front router: per-backend health and
	// probe/scrape latency alongside the aggregated counters above.
	Backends []BackendHealth `json:"backends,omitempty"`
}

// BackendHealth is one backend's status in a router's GET /v1/backends
// response.
type BackendHealth struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	Alive bool   `json:"alive"`
	Jobs  int    `json:"jobs"` // jobs the router currently routes to it

	// Probe/scrape observability (PR 6): consecutive health-probe failures
	// (0 while alive), the last health probe's latency, and the last
	// /v1/metrics scrape's latency.
	ProbeFails      int     `json:"probe_fails"`
	ProbeLatencyMS  float64 `json:"probe_latency_ms,omitempty"`
	ScrapeLatencyMS float64 `json:"scrape_latency_ms,omitempty"`
}
