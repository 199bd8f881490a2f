package service

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
	"time"

	"ifdk/pkg/api"
	"ifdk/pkg/volume"
)

// waitNetGoroutines is waitGoroutines for tests that stream over real
// HTTP: the default client parks readLoop/writeLoop goroutines on pooled
// idle connections, which are not leaks — evict them while polling so only
// genuinely stuck handlers fail the check.
func waitNetGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), baseline)
}

// waitSliceEvent blocks until the job has published its first slice event
// and returns it.
func waitSliceEvent(t *testing.T, m *Manager, id string) Event {
	t.Helper()
	sub := m.Events().Subscribe(id, 0)
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for {
		batch, ok := sub.Next(ctx)
		for _, e := range batch {
			if e.Type == EventSlice {
				return e
			}
		}
		if !ok {
			t.Fatal("stream ended before any slice event")
		}
	}
}

// An SSE client that disconnects mid-run must unwind its handler without
// leaking goroutines or disturbing the job, which completes normally.
func TestSSEClientDisconnectMidRun(t *testing.T) {
	gate := newSliceGate()
	defer gate.open()
	opt := Options{Workers: 1}
	opt.testOnSlice = gate.hook
	ts, m := startTestServer(t, opt)
	baseline := runtime.NumGoroutine()

	_, v := postJob(t, ts.URL, testSpec())
	ctx, cancel := context.WithCancel(context.Background())
	events := openSSE(t, ctx, ts.URL+"/v1/jobs/"+v.ID+"/events", 0)
	waitSliceEvent(t, m, v.ID) // the run is parked mid-epilogue, stream live
	cancel()                   // client walks away while events keep coming
	// The drain ending proves the response was torn down while the job was
	// still mid-run (no terminal event had been published yet).
	for range events {
	}

	gate.open()
	if final := waitState(t, m, v.ID, time.Minute); final.State != StateDone {
		t.Fatalf("job after SSE disconnect = %s, want done (disconnect must not touch the run)", final.State)
	}
	waitNetGoroutines(t, baseline) // handler and rank goroutines all unwound
}

// Cancelling a job mid-stream must end the slice stream with a terminal
// cancelled part — not hang the consumer, not leak the handler.
func TestStreamJobCancelledMidStream(t *testing.T) {
	gate := newSliceGate()
	defer gate.open()
	opt := Options{Workers: 1}
	opt.testOnSlice = gate.hook
	ts, m := startTestServer(t, opt)
	baseline := runtime.NumGoroutine()

	_, v := postJob(t, ts.URL, testSpec())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	parts, views := openStream(t, ctx, ts.URL+"/v1/jobs/"+v.ID+"/stream")
	waitSliceEvent(t, m, v.ID)
	if err := m.Cancel(v.ID); err != nil { // job is running: context teardown
		t.Fatal(err)
	}
	gate.open() // let the parked epilogue observe the cancellation

	for range parts {
	} // whatever was durable before the cancel still streams out
	final, ok := <-views
	if !ok {
		t.Fatal("stream ended without a terminal part after cancellation")
	}
	if final.State != StateCancelled {
		t.Fatalf("terminal stream part state = %s, want cancelled", final.State)
	}
	waitNetGoroutines(t, baseline)
}

// A streaming client on a job that gets deleted outright (terminal, then
// DELETE) is woken by the topic drop rather than left hanging.
func TestStreamEndsWhenJobDeleted(t *testing.T) {
	ts, m := startTestServer(t, Options{Workers: 1})
	baseline := runtime.NumGoroutine()
	_, v := postJob(t, ts.URL, testSpec())
	waitState(t, m, v.ID, time.Minute)

	// Subscribe directly at the bus layer, parked beyond the done event.
	sub := m.Events().Subscribe(v.ID, 1<<30)
	defer sub.Close()
	woken := make(chan bool, 1)
	go func() {
		_, ok := sub.Next(context.Background())
		woken <- ok
	}()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case ok := <-woken:
		if ok {
			t.Fatal("subscriber saw an open stream after the job was deleted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DELETE did not wake the parked subscriber")
	}
	waitNetGoroutines(t, baseline)
}

// Error paths of the streaming endpoints: unknown jobs, malformed resume
// cursors, and slice streams of jobs that ended without output.
func TestStreamEndpointEdgeCases(t *testing.T) {
	gate := newSliceGate()
	defer gate.open()
	opt := Options{Workers: 1}
	opt.testOnSlice = gate.hook
	ts, m := startTestServer(t, opt)

	status := func(path string, hdr map[string]string) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/v1/jobs/nope/events", nil); got != http.StatusNotFound {
		t.Errorf("events of unknown job = %d, want 404", got)
	}
	if got := status("/v1/jobs/nope/stream", nil); got != http.StatusNotFound {
		t.Errorf("stream of unknown job = %d, want 404", got)
	}

	// The held job parks the only worker mid-epilogue, pinning the next
	// submission in the queue; cancelling that one is deterministic.
	_, held := postJob(t, ts.URL, testSpec())
	waitSliceEvent(t, m, held.ID)
	if got := status("/v1/jobs/"+held.ID+"/events", map[string]string{"Last-Event-ID": "xyz"}); got != http.StatusBadRequest {
		t.Errorf("events with bad Last-Event-ID = %d, want 400", got)
	}
	if got := status("/v1/jobs/"+held.ID+"/events?after=-3", nil); got != http.StatusBadRequest {
		t.Errorf("events with negative ?after = %d, want 400", got)
	}

	// A job cancelled while queued never produced slices: /stream is 409.
	_, queued := postJob(t, ts.URL, Spec{Phantom: "sphere", NX: 16, NP: 160, R: 2, C: 2})
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if got := status("/v1/jobs/"+queued.ID+"/stream", nil); got != http.StatusConflict {
		t.Errorf("stream of cancelled job = %d, want 409", got)
	}
	if got := status("/v1/jobs/"+queued.ID+"/slice/3", nil); got != http.StatusConflict {
		t.Errorf("slice of cancelled job = %d, want 409 (it will never be written)", got)
	}
	gate.open()
	waitState(t, m, held.ID, time.Minute)
}

// Status-code regressions for GET /v1/jobs/{id}/slice/{z}: bad indices are
// the client's fault (400), valid-but-unwritten slices are 404 retryable,
// and a slice that IS on the PFS serves mid-run with 200.
func TestSliceStatusCodes(t *testing.T) {
	gate := newSliceGate()
	defer gate.open()
	opt := Options{Workers: 1}
	opt.testOnSlice = gate.hook
	ts, m := startTestServer(t, opt)

	_, v := postJob(t, ts.URL, testSpec()) // nx 16 → Nz 16
	first := waitSliceEvent(t, m, v.ID)    // parked: exactly slices 0 and 4's row heads durable

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	for path, want := range map[string]int{
		"/v1/jobs/" + v.ID + "/slice/abc": http.StatusBadRequest, // not an integer
		"/v1/jobs/" + v.ID + "/slice/-1":  http.StatusBadRequest, // below range
		"/v1/jobs/" + v.ID + "/slice/16":  http.StatusBadRequest, // == Nz
		"/v1/jobs/" + v.ID + "/slice/3":   http.StatusNotFound,   // valid z, not yet written
		"/v1/jobs/nope/slice/0":           http.StatusNotFound,   // unknown job
	} {
		if got := get(path); got != want {
			t.Errorf("GET %s = %d, want %d", path, got, want)
		}
	}
	// The slice whose event fired is durable and must serve mid-run.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/slice/" + strconv.Itoa(first.Z))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("mid-run GET of written slice %d = %d, want 200", first.Z, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
		t.Errorf("mid-run slice Content-Type = %q, want image/png", ct)
	}

	gate.open()
	waitState(t, m, v.ID, time.Minute)
	if got := get("/v1/jobs/" + v.ID + "/slice/3"); got != http.StatusOK {
		t.Errorf("GET of slice 3 after completion = %d, want 200", got)
	}
	if got := get("/v1/jobs/" + v.ID + "/slice/16"); got != http.StatusBadRequest {
		t.Errorf("GET of slice 16 after completion = %d, want 400", got)
	}
}

// laggingWriter is a ResponseWriter whose body is an io.Pipe: every write
// the handler makes blocks until the test reads it, as it would behind a
// consumer that reads nothing.
type laggingWriter struct {
	*io.PipeWriter
	h http.Header
}

func (w laggingWriter) Header() http.Header { return w.h }
func (laggingWriter) WriteHeader(int)       {}
func (laggingWriter) Flush()                {}

// A /stream consumer that reads nothing until its job has settled still gets
// every slice exactly once, bit-identical to Manager.Volume: what the
// handler could not send while the job ran comes from its result.
func TestStreamLaggingConsumerGetsEverySliceOnce(t *testing.T) {
	gate := newSliceGate()
	m := NewManager(Options{Workers: 1, testOnSlice: gate.hook})
	defer shutdown(t, m)
	defer gate.open()
	v, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitSliceEvent(t, m, v.ID) // parked mid-epilogue, a slice handed over

	pr, pw := io.Pipe()
	defer pr.Close() // on an early failure, unblocks the handler's write
	w := laggingWriter{pw, http.Header{}}
	served := make(chan struct{})
	go func() {
		defer close(served)
		NewServer(m).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+v.ID+"/stream", nil))
		pw.Close()
	}()
	body := bufio.NewReader(pr)
	// The first byte arrives once the handler writes its first part, after
	// its headers are set; the rest of that write stays blocked.
	if _, err := body.Peek(1); err != nil {
		t.Fatal(err)
	}
	gate.open()
	if got := waitState(t, m, v.ID, 30*time.Second); got.State != StateDone {
		t.Fatalf("state %s: %s", got.State, got.Error)
	}
	requireNoJobOutput(t, m)

	vol, err := m.Volume(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, vol.Nz)
	var end *View
	for p, err := range api.ReadSlices(w.h.Get("Content-Type"), body) {
		if err != nil {
			t.Fatal(err)
		}
		if p.End != nil {
			end = p.End
			continue
		}
		seen[p.Z]++
		if !bytes.Equal(p.Payload, volume.ImageToBytes(vol.SliceZ(p.Z))) {
			t.Errorf("slice %d differs from the job's volume", p.Z)
		}
	}
	<-served
	for z, n := range seen {
		if n != 1 {
			t.Errorf("slice %d sent %d times, want once", z, n)
		}
	}
	if end == nil || end.State != StateDone {
		t.Errorf("closing view %+v, want state done", end)
	}
}

// A /stream consumer that reads nothing until its job's result has been
// evicted from a one-entry cache still gets every slice exactly once,
// bit-identical to the volume read before the eviction: the handler keeps
// the job's volume, whether it attached mid-run or while the job was still
// queued (its first write, the preview tier, comes once the volume
// exists). Requests that attach after the eviction answer terminal.
func TestStreamKeepsVolumeAcrossEviction(t *testing.T) {
	for _, queued := range []bool{false, true} {
		t.Run(fmt.Sprintf("queued=%v", queued), func(t *testing.T) {
			// gate parks the first job at its first slice; pgate holds job A
			// after its preview tier, when it was queued at attach.
			gate, pgate := newSliceGate(), newSliceGate()
			m := NewManager(Options{Workers: 1, CacheBytes: entrySize(entryOfSize(16)),
				testOnSlice: gate.hook, testOnPreview: pgate.hook})
			defer shutdown(t, m)
			defer gate.open()
			defer pgate.open()
			if !queued {
				pgate.open()
			}
			var blocker View // parks the one worker while job A waits behind it
			if queued {
				var err error
				if blocker, err = m.Submit(Spec{Phantom: "shepplogan", NX: 16, R: 2, C: 2, Window: "cosine"}); err != nil {
					t.Fatal(err)
				}
			}
			a, err := m.Submit(progSpec(api.QualityProgressive))
			if err != nil {
				t.Fatal(err)
			}
			waitSliceEvent(t, m, cmp.Or(blocker.ID, a.ID)) // parked mid-epilogue
			if v, _ := m.Get(a.ID); (v.State == StateQueued) != queued {
				t.Fatalf("job A is %s at attach", v.State)
			}

			pr, pw := io.Pipe()
			defer pr.Close() // on an early failure, unblocks the handler's write
			w := laggingWriter{pw, http.Header{}}
			served := make(chan struct{})
			go func() {
				defer close(served)
				NewServer(m).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+a.ID+"/stream", nil))
				pw.Close()
			}()
			body := bufio.NewReader(pr)
			if queued {
				// Job A runs once the blocker is let go, so let it go only
				// after the handler has subscribed, the step just before
				// it looks at the job.
				for tp := m.events.topicFor(a.ID, true); ; time.Sleep(time.Millisecond) {
					tp.mu.Lock()
					n := len(tp.subs)
					tp.mu.Unlock()
					if n > 0 {
						break
					}
				}
				gate.open()
			}
			if _, err := body.Peek(1); err != nil { // the handler writes its first part
				t.Fatal(err)
			}
			gate.open()
			pgate.open()
			if got := waitState(t, m, a.ID, 30*time.Second); got.State != StateDone {
				t.Fatalf("job A: state %s: %s", got.State, got.Error)
			}
			vol, err := m.Volume(a.ID)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]byte, vol.Nz)
			for z := range want {
				want[z] = volume.ImageToBytes(vol.SliceZ(z))
			}
			b, err := m.Submit(Spec{Phantom: "shepplogan", NX: 16, R: 2, C: 2, Window: "hann"})
			if err != nil {
				t.Fatal(err)
			}
			if got := waitState(t, m, b.ID, 30*time.Second); got.State != StateDone || got.CacheHit {
				t.Fatalf("job B: state %s, cache hit %v: %s", got.State, got.CacheHit, got.Error)
			}
			if _, err := m.Volume(a.ID); err == nil {
				t.Fatal("job A's result is still readable after job B's evicted it")
			}

			seen := make([]int, vol.Nz)
			var end *View
			for p, err := range api.ReadSlices(w.h.Get("Content-Type"), body) {
				switch {
				case err != nil:
					t.Fatal(err)
				case p.End != nil:
					end = p.End
				case p.Factor == 0:
					seen[p.Z]++
					if !bytes.Equal(p.Payload, want[p.Z]) {
						t.Errorf("slice %d differs from job A's volume", p.Z)
					}
				}
			}
			<-served
			for z, n := range seen {
				if n != 1 {
					t.Errorf("slice %d sent %d times, want once", z, n)
				}
			}
			if end == nil || end.State != StateDone {
				t.Errorf("closing view %+v, want state done", end)
			}

			srv := NewServer(m)
			for _, path := range []string{"/stream", "/slice/3"} {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+a.ID+path, nil))
				if e := decodeAPIError(t, rec.Result()); e.Code != api.CodeTerminal {
					t.Errorf("%s after the eviction: %d %s, want terminal", path, rec.Code, e.Code)
				}
			}
		})
	}
}

// Reading a settled job back is not a cache lookup: /slice of every plane
// and /stream (preview tier included) of a done progressive job leave the
// cache's hit and miss counters (ifdk_cache_hits_total,
// ifdk_cache_misses_total) as they were.
func TestServingReadsLeaveCacheCountersAlone(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer shutdown(t, m)
	v, err := m.Submit(progSpec(api.QualityProgressive))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitState(t, m, v.ID, 30*time.Second); got.State != StateDone {
		t.Fatalf("state %s: %s", got.State, got.Error)
	}
	before := m.Metrics().Cache
	srv := NewServer(m)
	paths := []string{"/stream"}
	for z := 0; z < v.Spec.NX; z++ {
		paths = append(paths, "/slice/"+strconv.Itoa(z))
	}
	for _, path := range paths {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+v.ID+path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
		}
	}
	if after := m.Metrics().Cache; after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("cache hits/misses %d/%d → %d/%d across %d serving reads",
			before.Hits, before.Misses, after.Hits, after.Misses, len(paths))
	}
}
