package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"ifdk/internal/ct/kernels"
	"ifdk/pkg/api"
)

// promFor maps every api.Metrics JSON field (nested structs flattened with
// a dot) to its Prometheus-exposition counterpart. An empty name documents
// a field deliberately absent from this daemon's exposition. The contract
// test below fails when a Metrics field is added without deciding its
// exposition story.
var promFor = map[string]string{
	"uptime_sec":         "ifdk_uptime_seconds",
	"workers":            "ifdk_workers",
	"busy_workers":       "ifdk_busy_workers",
	"queue_depth":        "ifdk_queue_depth",
	"queue_cap":          "ifdk_queue_capacity",
	"queue_cost_sec":     "ifdk_queue_cost_seconds",
	"max_queued_sec":     "ifdk_queue_cost_budget_seconds",
	"inflight_est_bytes": "ifdk_inflight_est_bytes",
	"max_inflight_bytes": "ifdk_inflight_budget_bytes",
	"pool_in_use_bytes":  "ifdk_pool_in_use_bytes",
	"cost_scale":         "ifdk_cost_scale",
	"jobs":               "ifdk_jobs",
	"completed":          "ifdk_jobs_completed_total",
	"cache_hits":         "ifdk_jobs_cache_hits_total",
	"failed":             "ifdk_jobs_failed_total",
	"cancelled":          "ifdk_jobs_cancelled_total",
	"jobs_per_sec":       "ifdk_jobs_per_sec",

	"admission.admitted":       "ifdk_admission_total",
	"admission.rejected_full":  "ifdk_admission_total",
	"admission.rejected_cost":  "ifdk_admission_total",
	"admission.rejected_bytes": "ifdk_admission_total",
	"admission.rejected_quota": "ifdk_admission_total",

	"wait_sec": "ifdk_queue_wait_seconds",

	"cache.hits":      "ifdk_cache_hits_total",
	"cache.misses":    "ifdk_cache_misses_total",
	"cache.entries":   "ifdk_cache_entries",
	"cache.bytes":     "ifdk_cache_bytes",
	"cache.max_bytes": "ifdk_cache_max_bytes",

	"pfs_read_mb":  "ifdk_pfs_read_bytes_total",
	"pfs_write_mb": "ifdk_pfs_write_bytes_total",
	"pfs_objects":  "ifdk_pfs_objects",
	"pfs_held_mb":  "ifdk_pfs_held_bytes",
	"event_drops":  "ifdk_event_drops_total",

	// Router-only aggregation detail: the router exposes per-backend
	// ifdk_router_backend_* families instead of a flat field.
	"backends": "",
}

// runtimeFamilies are the exposition-only families read from the Go runtime
// (runtime/metrics) at scrape time; /v1/metrics has no field for them.
var runtimeFamilies = []string{
	"ifdk_go_heap_live_bytes",
	"ifdk_go_heap_goal_bytes",
	"ifdk_go_heap_free_bytes",
	"ifdk_go_heap_released_bytes",
	"ifdk_go_gc_cpu_seconds_total",
	"ifdk_go_goroutines",
}

func jsonTag(f reflect.StructField) string {
	tag := strings.Split(f.Tag.Get("json"), ",")[0]
	if tag == "-" {
		return ""
	}
	return tag
}

// metricsFields flattens api.Metrics' JSON field paths (one level of struct
// nesting, which is all the type has).
func metricsFields(t *testing.T) []string {
	t.Helper()
	var paths []string
	mt := reflect.TypeOf(api.Metrics{})
	for i := 0; i < mt.NumField(); i++ {
		f := mt.Field(i)
		tag := jsonTag(f)
		if tag == "" {
			t.Fatalf("api.Metrics field %s has no json tag", f.Name)
		}
		ft := f.Type
		if ft.Kind() == reflect.Struct {
			for k := 0; k < ft.NumField(); k++ {
				paths = append(paths, tag+"."+jsonTag(ft.Field(k)))
			}
			continue
		}
		paths = append(paths, tag)
	}
	return paths
}

// TestMetricsContract: every field of the JSON /v1/metrics snapshot must
// have a decided counterpart in the Prometheus exposition (or a documented
// absence), and every mapped family must actually be registered.
func TestMetricsContract(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	}()

	var b strings.Builder
	if err := m.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exposed := map[string]bool{}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			exposed[strings.Fields(line)[2]] = true
		}
	}

	for _, path := range metricsFields(t) {
		name, mapped := promFor[path]
		if !mapped {
			t.Errorf("api.Metrics field %q has no exposition mapping — add it to promFor (or map it to \"\" with a reason)", path)
			continue
		}
		if name != "" && !exposed[name] {
			t.Errorf("field %q maps to %q, which the registry does not expose", path, name)
		}
	}
	for _, name := range runtimeFamilies {
		if !exposed[name] {
			t.Errorf("runtime family %q is not exposed", name)
		}
	}
}

// TestExpositionEndpoint: GET /metrics serves valid text exposition whose
// counters agree with the JSON snapshot after real work.
func TestExpositionEndpoint(t *testing.T) {
	ts, m := startTestServer(t, Options{Workers: 2})
	_, v := postJob(t, ts.URL, testSpec())
	waitState(t, m, v.ID, 30*time.Second)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"ifdk_jobs_completed_total 1",
		`ifdk_admission_total{decision="admitted"} 1`,
		`ifdk_stage_seconds_count{stage="backproject"} 1`,
		`ifdk_stage_seconds_count{stage="dataset"} 1`,
		`ifdk_queue_wait_seconds_count{class="normal"} 1`,
		"ifdk_event_drops_total 0",
		fmt.Sprintf("ifdk_build_info{isa=%q,goversion=%q,gomaxprocs=\"%d\"} 1",
			kernels.ISA(), runtime.Version(), runtime.GOMAXPROCS(0)),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The runtime families read the live process: a live heap (0 until the
	// first GC), a goal at or above it, and goroutines.
	live, goal, gor := sampleValue(body, "ifdk_go_heap_live_bytes"), sampleValue(body, "ifdk_go_heap_goal_bytes"), sampleValue(body, "ifdk_go_goroutines")
	if live < 0 || goal < live || gor < 1 || sampleValue(body, "ifdk_go_gc_cpu_seconds_total") < 0 {
		t.Errorf("runtime families: heap live %g, goal %g, goroutines %g", live, goal, gor)
	}
	if free, rel := sampleValue(body, "ifdk_go_heap_free_bytes"), sampleValue(body, "ifdk_go_heap_released_bytes"); free < 0 || rel < 0 {
		t.Errorf("runtime families: heap free %g, released %g", free, rel)
	}
	// JSON view reads the same cells.
	mt := m.Metrics()
	if mt.Completed != 1 || mt.Admission.Admitted != 1 {
		t.Errorf("JSON metrics disagree: completed=%d admitted=%d", mt.Completed, mt.Admission.Admitted)
	}
}

// ifdk_stage_seconds{stage="dataset"} counts the jobs that rendered and
// staged their scan, not those that found it staged, and its sum is the
// time the renderer's stage.dataset span shows.
func TestStageDatasetObservedPerRender(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	}()
	first, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, first.ID, 30*time.Second)
	again := testSpec()
	again.Window = "hann" // the same scan, not a cache hit
	second, err := m.Submit(again)
	if err != nil {
		t.Fatal(err)
	}
	if v := waitState(t, m, second.ID, 30*time.Second); v.State != StateDone || v.CacheHit {
		t.Fatalf("second job %s (cache hit %v), want a done reconstruction", v.State, v.CacheHit)
	}
	h := m.met.stageSeconds.With("dataset")
	if h.Count() != 1 {
		t.Fatalf("stage=dataset observed %d times for one rendered scan and one staged one", h.Count())
	}
	tr, err := m.TraceFor(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	spans := 0
	for _, sp := range tr.Spans {
		if sp.Name == "stage.dataset" {
			spans++
			if sp.DurationSec != h.Sum() {
				t.Fatalf("stage.dataset span %gs, stage=dataset sum %gs", sp.DurationSec, h.Sum())
			}
		}
	}
	if spans != 1 {
		t.Fatalf("first job's trace has %d stage.dataset spans", spans)
	}
}

// sampleValue is the value of an unlabelled sample in a text exposition,
// or -1 when it is absent.
func sampleValue(body, name string) float64 {
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				return f
			}
		}
	}
	return -1
}

func getTrace(t *testing.T, url, id string) api.Trace {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}
	var tr api.Trace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTraceEndToEnd: a job submitted with a caller traceparent yields one
// trace ID end to end, and the assembled span tree covers the full
// lifecycle with durations consistent with the stage clock.
func TestTraceEndToEnd(t *testing.T) {
	ts, m := startTestServer(t, Options{Workers: 2, NodeID: "t1"})
	traceID, spanID := api.NewTraceID(), api.NewSpanID()

	body := strings.NewReader(`{"phantom":"shepplogan","nx":16,"r":2,"c":2}`)
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.TraceParentHeader, api.FormatTraceParent(traceID, spanID))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v.TraceID != traceID {
		t.Fatalf("view trace ID = %q, want caller's %q", v.TraceID, traceID)
	}
	final := waitState(t, m, v.ID, 30*time.Second)
	if final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}

	tr := getTrace(t, ts.URL, v.ID)
	if tr.TraceID != traceID || !tr.Complete {
		t.Fatalf("trace id=%q complete=%v, want caller's id and complete", tr.TraceID, tr.Complete)
	}
	byName := map[string][]api.Span{}
	for _, s := range tr.Spans {
		if s.TraceID != traceID {
			t.Fatalf("span %s carries trace %q", s.Name, s.TraceID)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	for _, want := range []string{"job", "queue.wait", "stage.dataset", "compute", "backproject", "reduce", "store"} {
		if len(byName[want]) != 1 {
			t.Fatalf("span %q appears %d times, want 1 (have %v)", want, len(byName[want]), names(tr.Spans))
		}
	}
	root := byName["job"][0]
	if root.ParentSpanID != spanID {
		t.Errorf("root parent = %q, want the caller's span %q", root.ParentSpanID, spanID)
	}
	if root.Attrs["job_id"] != v.ID || root.Attrs["node"] != "t1" || root.Attrs["state"] != "done" {
		t.Errorf("root attrs = %v", root.Attrs)
	}
	compute := byName["compute"][0]
	for _, name := range []string{"queue.wait", "stage.dataset", "compute", "reduce", "store"} {
		if p := byName[name][0].ParentSpanID; p != root.SpanID {
			t.Errorf("span %s parent = %q, want root %q", name, p, root.SpanID)
		}
	}
	if len(byName["filter.round"]) < 1 || len(byName["allgather.round"]) < 1 {
		t.Fatalf("no per-round spans: %v", names(tr.Spans))
	}
	for _, s := range append(byName["filter.round"], byName["allgather.round"]...) {
		if s.ParentSpanID != compute.SpanID {
			t.Errorf("round span parent = %q, want compute %q", s.ParentSpanID, compute.SpanID)
		}
	}
	if c := byName["filter.round"][0].Attrs["covers"]; c != "load+filter+transpose" {
		t.Errorf("filter.round covers %q, want the stage to end with the transpose", c)
	}
	// Durations agree with the stage clock the View reports.
	const eps = 1e-6
	if d := byName["backproject"][0].DurationSec; math.Abs(d-final.Stages.Backproject) > eps {
		t.Errorf("backproject span %gs, stage clock %gs", d, final.Stages.Backproject)
	}
	if d := compute.DurationSec; math.Abs(d-final.Stages.Compute) > eps {
		t.Errorf("compute span %gs, stage clock %gs", d, final.Stages.Compute)
	}

	// The bus announced the trace before the terminal event.
	sub, err := m.subscribe(v.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var sawTrace bool
	for {
		batch, ok := sub.Next(ctx)
		for _, e := range batch {
			if e.Type == EventTrace {
				sawTrace = true
				if e.TraceID != traceID {
					t.Errorf("trace event carries %q, want %q", e.TraceID, traceID)
				}
			}
			if e.Type.Terminal() && !sawTrace {
				t.Error("terminal event arrived before the trace event")
			}
		}
		if !ok {
			break
		}
	}
	if !sawTrace {
		t.Error("no trace event on the bus")
	}

	// A cache hit still yields a complete (degenerate) trace of its own.
	_, v2 := postJob(t, ts.URL, testSpec())
	if !v2.CacheHit {
		t.Fatalf("resubmission missed the cache")
	}
	tr2 := getTrace(t, ts.URL, v2.ID)
	if !tr2.Complete || tr2.TraceID == traceID {
		t.Fatalf("cache-hit trace complete=%v id=%q", tr2.Complete, tr2.TraceID)
	}
	hitNames := names(tr2.Spans)
	if len(tr2.Spans) != 2 || hitNames[0] != "job" || hitNames[1] != "cache.hit" {
		t.Fatalf("cache-hit spans = %v, want [job cache.hit]", hitNames)
	}
}

func names(spans []api.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// TestTracePartialWhileQueued: a job that has not started yet serves a
// partial trace (root + open queue.wait) rather than a 404.
func TestTracePartialWhileQueued(t *testing.T) {
	m := NewManager(Options{Workers: 1, PFS: pfsThrottled(), QueueCap: 8})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	}()
	// Fill the single worker, then queue one more.
	v1, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	spec2 := testSpec()
	spec2.Phantom = "sphere"
	v2, err := m.Submit(spec2)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.TraceFor(v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Complete {
		t.Error("queued job's trace claims complete")
	}
	got := names(tr.Spans)
	if len(got) < 2 || got[0] != "job" || got[1] != "queue.wait" {
		t.Errorf("partial spans = %v, want job + queue.wait", got)
	}
	for _, s := range tr.Spans {
		if s.DurationSec != 0 {
			t.Errorf("open span %s reports duration %g", s.Name, s.DurationSec)
		}
	}
	waitState(t, m, v1.ID, 30*time.Second)
	waitState(t, m, v2.ID, 30*time.Second)
}

// TestTraceCompleteWhileJobRetained: a settled job's trace stays complete,
// and unchanged, for as long as the job record does (maxJobs), however many
// newer jobs settle after it — here 300 cache-hit resubmissions, more than
// any trace store smaller than the job table would keep.
func TestTraceCompleteWhileJobRetained(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	}()
	v, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if final := waitState(t, m, v.ID, 30*time.Second); final.State != StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	first, err := m.TraceFor(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Complete {
		t.Fatal("settled job's trace is not complete")
	}
	for i := 0; i < 300; i++ {
		hit, err := m.Submit(testSpec())
		if err != nil {
			t.Fatal(err)
		}
		if !hit.CacheHit {
			t.Fatalf("resubmission %d missed the cache", i)
		}
	}
	later, err := m.TraceFor(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !later.Complete {
		t.Fatal("done job's trace turned incomplete after 300 newer jobs settled")
	}
	if !reflect.DeepEqual(later, first) {
		t.Errorf("trace changed after newer jobs settled:\n got %+v\nwant %+v", later, first)
	}
}

// TestEventDropsSurface: overflowing a tiny per-job log shows up in both
// metric surfaces.
func TestEventDropsSurface(t *testing.T) {
	m := NewManager(Options{Workers: 1, EventLogCap: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	}()
	for i := 0; i < 6; i++ {
		m.events.Publish("jx", Event{Type: EventSlice, Z: i})
	}
	if d := m.events.Drops(); d != 4 {
		t.Fatalf("bus drops = %d, want 4", d)
	}
	if d := m.Metrics().EventDrops; d != 4 {
		t.Fatalf("metrics event_drops = %d, want 4", d)
	}
	var b strings.Builder
	if err := m.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "ifdk_event_drops_total 4") {
		t.Error("exposition missing ifdk_event_drops_total 4")
	}
	m.events.Drop("jx")
}
