package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ifdk/internal/service"
	"ifdk/pkg/api"
	"ifdk/pkg/client"
)

func getJSON(t *testing.T, ctx context.Context, url string, out any) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// One trace ID must survive the whole path: the caller's traceparent enters
// the router, the router interposes its proxy span, the owning backend
// records the lifecycle tree under the same trace, and the router's trace
// endpoint returns the merged view with the hop chain intact —
// caller span <- router.proxy <- job <- (queue.wait, compute, ...).
func TestRouterTraceEndToEnd(t *testing.T) {
	f := startFleet(t, 2, nil)
	ctx := testCtx(t)
	c := client.New(f.routerTS.URL)

	callerTrace, callerSpan := api.NewTraceID(), api.NewSpanID()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.routerTS.URL+"/v1/jobs",
		strings.NewReader(`{"phantom":"sphere","nx":16,"np":32}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.TraceParentHeader, api.FormatTraceParent(callerTrace, callerSpan))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v api.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v.TraceID != callerTrace {
		t.Fatalf("view trace_id = %q, want the caller's %q", v.TraceID, callerTrace)
	}
	if _, err := c.Await(ctx, v.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	var tr api.Trace
	getJSON(t, ctx, f.routerTS.URL+"/v1/jobs/"+v.ID+"/trace", &tr)
	if tr.TraceID != callerTrace {
		t.Fatalf("trace id = %q, want %q", tr.TraceID, callerTrace)
	}
	if tr.Job != v.ID {
		t.Fatalf("trace job = %q, want public id %q", tr.Job, v.ID)
	}
	if !tr.Complete {
		t.Fatal("trace of a settled job must be complete")
	}
	byName := map[string]api.Span{}
	for _, s := range tr.Spans {
		if s.TraceID != callerTrace {
			t.Fatalf("span %s carries trace %q, want %q", s.Name, s.TraceID, callerTrace)
		}
		byName[s.Name] = s
	}
	proxy, ok := byName["router.proxy"]
	if !ok {
		t.Fatalf("no router.proxy span in %d spans", len(tr.Spans))
	}
	if proxy.Service != "router" {
		t.Fatalf("router.proxy service = %q, want router", proxy.Service)
	}
	if proxy.ParentSpanID != callerSpan {
		t.Fatalf("router.proxy parent = %q, want the caller span %q", proxy.ParentSpanID, callerSpan)
	}
	if proxy.DurationSec <= 0 {
		t.Fatal("router.proxy span has no duration")
	}
	job, ok := byName["job"]
	if !ok {
		t.Fatal("no job span")
	}
	if job.ParentSpanID != proxy.SpanID {
		t.Fatalf("job span parent = %q, want the router.proxy span %q", job.ParentSpanID, proxy.SpanID)
	}
	if job.Service != "ifdkd" {
		t.Fatalf("job span service = %q, want ifdkd", job.Service)
	}
	for _, name := range []string{"queue.wait", "compute", "backproject", "reduce", "store"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("backend lifecycle span %q missing from the router-merged trace", name)
		}
	}
}

// The router's own observability surfaces: the fleet /v1/metrics aggregate
// carries summed event drops and per-backend health (consecutive probe
// failures, probe and scrape latency), /v1/backends reports the same fields,
// and GET /metrics serves the ifdk_router_* registry as Prometheus text.
func TestRouterObservabilitySurfaces(t *testing.T) {
	f := startFleet(t, 2, func(int) service.Options {
		// A 2-entry event log under a many-round job forces drops, which
		// must surface in the fleet aggregate.
		return service.Options{Workers: 2, EventLogCap: 2}
	})
	ctx := testCtx(t)
	c := client.New(f.routerTS.URL)

	v, err := c.Submit(ctx, api.Spec{Phantom: "sphere", NX: 16, NP: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Await(ctx, v.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	// Wait until the health loop has probed every backend at least once.
	var backends []api.BackendHealth
	deadline := time.Now().Add(5 * time.Second)
	for {
		backends = nil
		getJSON(t, ctx, f.routerTS.URL+"/v1/backends", &backends)
		probed := len(backends) == 2
		for _, b := range backends {
			probed = probed && b.ProbeLatencyMS > 0
		}
		if probed || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, b := range backends {
		if !b.Alive || b.ProbeFails != 0 {
			t.Fatalf("backend %s: alive=%v probe_fails=%d, want alive with 0 fails", b.Name, b.Alive, b.ProbeFails)
		}
		if b.ProbeLatencyMS <= 0 {
			t.Fatalf("backend %s reports no probe latency", b.Name)
		}
	}

	var m api.Metrics
	getJSON(t, ctx, f.routerTS.URL+"/v1/metrics", &m)
	if m.EventDrops <= 0 {
		t.Fatalf("fleet event_drops = %d, want > 0 under a 2-entry event log", m.EventDrops)
	}
	if len(m.Backends) != 2 {
		t.Fatalf("fleet metrics carries %d backends, want 2", len(m.Backends))
	}
	for _, b := range m.Backends {
		if !b.Alive {
			t.Fatalf("backend %s not alive in fleet metrics", b.Name)
		}
		if b.ScrapeLatencyMS <= 0 {
			t.Fatalf("backend %s reports no scrape latency after the fan-in that just scraped it", b.Name)
		}
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.routerTS.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(blob)
	for _, want := range []string{
		"# TYPE ifdk_router_backend_alive gauge",
		`ifdk_router_backend_alive{backend="b0"} 1`,
		`ifdk_router_backend_alive{backend="b1"} 1`,
		`ifdk_router_backend_probe_failures{backend="b0"} 0`,
		"# TYPE ifdk_router_probe_seconds histogram",
		"# TYPE ifdk_router_scrape_seconds histogram",
		"ifdk_router_reroutes_total 0",
		"ifdk_router_backends 2",
		"ifdk_router_backends_alive 2",
		"ifdk_router_routes 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("router exposition missing %q", want)
		}
	}
	// The probe histogram accumulated at least one observation per backend.
	if !strings.Contains(text, `ifdk_router_probe_seconds_count{backend="b0"}`) {
		t.Error("no probe latency observations for b0")
	}
}

// numericFields calls fn on every int and float field of v, descending into
// nested structs (api.Metrics' Admission and Cache), with its dotted path.
func numericFields(v reflect.Value, path string, fn func(path string, f reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			numericFields(f, name+".", fn)
		case reflect.Int, reflect.Int64, reflect.Float64:
			fn(name, f)
		}
	}
}

// asFloat reads an int or float field as a float64.
func asFloat(f reflect.Value) float64 {
	if f.CanInt() {
		return float64(f.Int())
	}
	return f.Float()
}

// The fleet /v1/metrics fan-in must carry every numeric field of
// api.Metrics, AdmissionStats and CacheStats: two stub backends report
// distinct non-zero values in every one, and the router must sum each
// counter and gauge, take the maximum uptime, average cost_scale and derive
// jobs_per_sec from the sums. A field added to the wire shape but not to the
// fan-in reads 0 at the router and fails here by name.
func TestRouterMetricsFanInCoversEveryField(t *testing.T) {
	var rbs []Backend
	var sent [2]api.Metrics
	for i := range sent {
		k := 0
		numericFields(reflect.ValueOf(&sent[i]).Elem(), "", func(_ string, f reflect.Value) {
			k++
			x := 100*(i+1) + k
			if f.CanInt() {
				f.SetInt(int64(x))
			} else {
				f.SetFloat(float64(x) + 0.5)
			}
		})
		m := sent[i]
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/metrics" {
				api.WriteJSON(w, http.StatusOK, m)
				return
			}
			w.WriteHeader(http.StatusOK)
		}))
		defer ts.Close()
		rbs = append(rbs, Backend{Name: fmt.Sprintf("s%d", i), URL: ts.URL})
	}
	rt, err := New(Options{Backends: rbs, HealthEvery: time.Second, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt)
	defer front.Close()

	var got api.Metrics
	getJSON(t, testCtx(t), front.URL+"/v1/metrics", &got)
	want := map[string]float64{}
	for i := range sent {
		numericFields(reflect.ValueOf(sent[i]), "", func(path string, f reflect.Value) {
			want[path] += asFloat(f)
		})
	}
	want["UptimeSec"] = max(sent[0].UptimeSec, sent[1].UptimeSec)
	want["CostScale"] = (sent[0].CostScale + sent[1].CostScale) / 2
	want["JobsPerSec"] = want["Completed"] / want["UptimeSec"]
	numericFields(reflect.ValueOf(got), "", func(path string, f reflect.Value) {
		if g := asFloat(f); math.Abs(g-want[path]) > 1e-9*want[path] {
			t.Errorf("fleet %s = %v, want %v", path, g, want[path])
		}
	})
}
