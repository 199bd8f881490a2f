// Package api is the versioned public contract of the iFDK reconstruction
// service: the wire types every transport speaks — the HTTP server in
// internal/service, the Go SDK in pkg/client, the front router in
// cmd/ifdk-router, and any external consumer that talks JSON to an ifdkd.
//
// Versioning policy: everything in this package describes API version
// Version ("v1"), mounted under the /v1/ URL prefix. Within v1, fields are
// only ever added (never renamed, retyped or removed) and error codes are
// only ever added; unknown JSON fields and unknown codes must be ignored by
// clients. A breaking change mints /v2 alongside /v1, never in place.
package api

// Version is the API generation this package describes. All routes live
// under "/" + Version + "/".
const Version = "v1"

// State is a job's lifecycle phase.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// MaxSpecBytes bounds the body of a job submission; a longer one is a bad
// request.
const MaxSpecBytes = 64 << 10

// Spec is a reconstruction request as it arrives over the wire: a synthetic
// cone-beam scan of a named phantom plus the grid to reconstruct it on.
// Zero-valued fields take server-side defaults.
type Spec struct {
	Phantom  string `json:"phantom"`  // shepplogan | sphere | industrial
	NX       int    `json:"nx"`       // output voxels per side
	NU       int    `json:"nu"`       // detector pixels per side (0 → 2·nx)
	NP       int    `json:"np"`       // projections (0 → 2·nx)
	R        int    `json:"r"`        // grid rows (0 → 2)
	C        int    `json:"c"`        // grid columns (0 → 2)
	Window   string `json:"window"`   // ramp window name ("" → ram-lak)
	Quality  string `json:"quality"`  // full | preview | progressive ("" → full; see quality.go)
	Priority string `json:"priority"` // low | normal | high ("" → normal)
	Verify   bool   `json:"verify"`   // compare against the serial FDK reference
	Client   string `json:"client"`   // client id for per-client quotas ("" → "anonymous")
}

// View is the JSON representation of a job returned by the API.
type View struct {
	ID        string  `json:"id"`
	State     State   `json:"state"`
	Spec      Spec    `json:"spec"`
	Priority  string  `json:"priority"`
	Progress  float64 `json:"progress"` // 0..1
	CacheHit  bool    `json:"cache_hit"`
	Error     string  `json:"error,omitempty"`
	RelRMSE   float64 `json:"rel_rmse,omitempty"`
	Verified  bool    `json:"verified,omitempty"`
	Submitted string  `json:"submitted"`
	Started   string  `json:"started,omitempty"`
	Finished  string  `json:"finished,omitempty"`
	WaitSec   float64 `json:"wait_sec"`
	RunSec    float64 `json:"run_sec,omitempty"`
	EstRunSec float64 `json:"est_run_sec"` // raw Sec. 4.2 model runtime (model seconds, machine-independent)
	Cost      float64 `json:"cost"`        // calibrated seconds charged against the queued-work budget
	EstBytes  int64   `json:"est_bytes"`   // working set charged against the byte budget
	TraceID   string  `json:"trace_id,omitempty"`
	Stages    Stages  `json:"stages,omitempty"`
	Recovered bool    `json:"recovered,omitempty"` // rebuilt from the write-ahead journal after a restart

	// Quality is the resolved quality tier ("full" | "preview" |
	// "progressive"); PreviewFactor is the decimation factor of the preview
	// tier (0 for full-quality jobs).
	Quality       string `json:"quality,omitempty"`
	PreviewFactor int    `json:"preview_factor,omitempty"`
}

// Stages is the wire form of the pipeline stage timings (seconds, max over
// ranks).
type Stages struct {
	Load        float64 `json:"load"`
	Filter      float64 `json:"filter"`
	AllGather   float64 `json:"allgather"`
	Backproject float64 `json:"backproject"`
	Compute     float64 `json:"compute"`
	Reduce      float64 `json:"reduce"`
	Store       float64 `json:"store"`
	Total       float64 `json:"total"`
}
