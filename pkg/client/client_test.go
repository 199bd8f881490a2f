package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ifdk/internal/service"
	"ifdk/pkg/api"
)

func newService(t *testing.T, opt service.Options) (*service.Manager, *httptest.Server) {
	t.Helper()
	m := service.NewManager(opt)
	ts := httptest.NewServer(service.NewServer(m))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return m, ts
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

func TestSubmitGetListCancel(t *testing.T) {
	_, ts := newService(t, service.Options{Workers: 2})
	c := New(ts.URL)
	ctx := testCtx(t)

	v, err := c.Submit(ctx, api.Spec{Phantom: "sphere", NX: 16, NP: 32})
	if err != nil {
		t.Fatal(err)
	}
	if v.ID == "" {
		t.Fatal("submit returned no job id")
	}
	got, err := c.Get(ctx, v.ID)
	if err != nil || got.ID != v.ID {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	vs, err := c.List(ctx)
	if err != nil || len(vs) != 1 {
		t.Fatalf("List = %d jobs, %v", len(vs), err)
	}
	final, err := c.Await(ctx, v.ID, 5*time.Millisecond)
	if err != nil || final.State != api.StateDone {
		t.Fatalf("Await = %+v, %v", final, err)
	}
	// Cancel of a terminal job deletes it; a second Get must report the
	// stable not_found code.
	if err := c.Cancel(ctx, v.ID); err != nil {
		t.Fatalf("Cancel(done job): %v", err)
	}
	_, err = c.Get(ctx, v.ID)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
		t.Fatalf("Get after delete: %v, want api.Error{not_found}", err)
	}
}

// Concurrent calls through one Client reuse their connections: 8 callers
// making 25 Gets each, in 25 rounds of 8 overlapping Gets, make the server
// accept at most 16 connections. The server holds each request for a
// millisecond, so a round's Gets overlap. With http.DefaultTransport's 2
// idle connections per host, each round closes all but two of its
// connections, and the next round dials them again.
func TestConcurrentCallsReuseConnections(t *testing.T) {
	m := service.NewManager(service.Options{Workers: 1})
	var accepted atomic.Int64
	h := service.NewServer(m)
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond)
		h.ServeHTTP(w, r)
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			accepted.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	c := New(ts.URL)
	ctx := testCtx(t)
	v, err := c.Submit(ctx, api.Spec{Phantom: "sphere", NX: 16, NP: 32})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 25; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.Get(ctx, v.ID); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	if n := accepted.Load(); n > 16 {
		t.Fatalf("server accepted %d connections for 201 calls from 8 callers, want at most 16", n)
	}
}

func TestSubmitInvalidSpecNotRetried(t *testing.T) {
	_, ts := newService(t, service.Options{Workers: 1})
	retries := 0
	c := New(ts.URL, WithRetry(Retry{OnRetry: func(string, int, time.Duration) { retries++ }}))
	_, err := c.Submit(testCtx(t), api.Spec{Phantom: "banana"})
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeInvalidSpec {
		t.Fatalf("err = %v, want invalid_spec", err)
	}
	if retries != 0 {
		t.Fatalf("invalid spec was retried %d times", retries)
	}
}

// Submit must ride out transient saturation (queue_full) with backoff until
// the worker drains the queue.
func TestSubmitRetriesSaturation(t *testing.T) {
	_, ts := newService(t, service.Options{Workers: 1, QueueCap: 1, CacheBytes: -1})
	var retried atomic.Int32
	c := New(ts.URL, WithRetry(Retry{Max: 40, Base: 10 * time.Millisecond, Cap: 100 * time.Millisecond,
		OnRetry: func(code string, _ int, _ time.Duration) {
			if code == api.CodeQueueFull {
				retried.Add(1)
			}
		}}))
	ctx := testCtx(t)
	// Burst more distinct jobs than queue+workers can hold; every one must
	// eventually land thanks to retry.
	ids := make(chan string, 6)
	errc := make(chan error, 6)
	for i := 0; i < 6; i++ {
		go func(i int) {
			v, err := c.Submit(ctx, api.Spec{Phantom: "sphere", NX: 16, NP: 32 + 32*i})
			if err != nil {
				errc <- err
				return
			}
			ids <- v.ID
		}(i)
	}
	for i := 0; i < 6; i++ {
		select {
		case err := <-errc:
			t.Fatalf("submit %d failed: %v", i, err)
		case id := <-ids:
			if _, err := c.Await(ctx, id, 5*time.Millisecond); err != nil {
				t.Fatalf("await %s: %v", id, err)
			}
		}
	}
	if retried.Load() == 0 {
		t.Log("note: queue drained fast enough that no 503 was observed")
	}
}

// flakyProxy fronts a real server and hard-drops the first `drops` SSE
// connections after their first delivered event, exercising Watch's
// Last-Event-ID resume path.
type flakyProxy struct {
	upstream *url.URL
	proxy    *httputil.ReverseProxy
	drops    atomic.Int32
	dropped  atomic.Int32
}

func newFlakyProxy(t *testing.T, upstream string, drops int32) *httptest.Server {
	t.Helper()
	u, err := url.Parse(upstream)
	if err != nil {
		t.Fatal(err)
	}
	fp := &flakyProxy{upstream: u, proxy: httputil.NewSingleHostReverseProxy(u)}
	fp.proxy.FlushInterval = -1
	fp.drops.Store(drops)
	ts := httptest.NewServer(fp)
	t.Cleanup(ts.Close)
	return ts
}

func (f *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasSuffix(r.URL.Path, "/events") && f.drops.Add(-1) >= 0 {
		f.dropped.Add(1)
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, f.upstream.String()+r.URL.String(), nil)
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		br := bufio.NewReader(resp.Body)
		for {
			line, err := br.ReadBytes('\n')
			if len(line) > 0 {
				_, _ = w.Write(line)
				w.(http.Flusher).Flush()
			}
			if err != nil {
				return
			}
			if bytes.Equal(line, []byte("\n")) {
				// One full SSE event delivered: cut the connection dead.
				panic(http.ErrAbortHandler)
			}
		}
	}
	f.proxy.ServeHTTP(w, r)
}

// Watch must survive dropped SSE connections without losing or duplicating
// events: sequence numbers strictly increase across reconnects, the
// finished job's retained log is a subset of what the flaky watcher saw
// (nothing lost; round events may legitimately coalesce away), and every
// slice event arrives exactly once.
func TestWatchReconnectsAfterDrop(t *testing.T) {
	_, ts := newService(t, service.Options{Workers: 2})
	flaky := newFlakyProxy(t, ts.URL, 2)
	ctx := testCtx(t)

	direct := New(ts.URL)
	v, err := direct.Submit(ctx, api.Spec{Phantom: "sphere", NX: 16, NP: 64})
	if err != nil {
		t.Fatal(err)
	}

	c := New(flaky.URL, WithRetry(Retry{Max: 10, Base: 5 * time.Millisecond}))
	var seqs []int64
	sliceSeen := map[int]int{}
	state, err := c.Watch(ctx, v.ID, func(e api.Event) error {
		seqs = append(seqs, e.Seq)
		if e.Type == api.EventSlice {
			sliceSeen[e.Z]++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if state != api.StateDone {
		t.Fatalf("terminal state = %s, want done", state)
	}

	// Seq contiguity across reconnects: strictly increasing, no duplicates.
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("seq not strictly increasing at %d: %v", i, seqs)
		}
	}
	// Exactly-once slice delivery (slice events are never coalesced).
	if len(sliceSeen) != 16 {
		t.Fatalf("saw %d distinct slice events, want 16", len(sliceSeen))
	}
	for z, n := range sliceSeen {
		if n != 1 {
			t.Fatalf("slice %d delivered %d times", z, n)
		}
	}
	// Nothing lost: the terminal retained log (ground truth after
	// coalescing) must be a subset of the flaky watcher's deliveries.
	got := map[int64]bool{}
	for _, s := range seqs {
		got[s] = true
	}
	var refMissing []int64
	if _, err := direct.Watch(ctx, v.ID, func(e api.Event) error {
		if !got[e.Seq] {
			refMissing = append(refMissing, e.Seq)
		}
		return nil
	}); err != nil {
		t.Fatalf("reference watch: %v", err)
	}
	if len(refMissing) > 0 {
		t.Fatalf("flaky watcher lost retained events %v", refMissing)
	}
}

// The reconnect budget is per outage, not per watch: a connection that
// delivered events before dropping resets the attempt counter, so a long
// watch over a flaky path survives more total drops than Retry.Max as long
// as each individual drop recovers. Six cuts against a budget of three
// would exhaust a cumulative counter; with the reset the watch completes.
func TestWatchRetryBudgetResetsOnProgress(t *testing.T) {
	_, ts := newService(t, service.Options{Workers: 2})
	flaky := newFlakyProxy(t, ts.URL, 6)
	ctx := testCtx(t)

	direct := New(ts.URL)
	v, err := direct.Submit(ctx, api.Spec{Phantom: "sphere", NX: 16, NP: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Let the job finish first: every reconnect then replays at least one
	// retained event before the proxy cuts it, making progress deterministic.
	if _, err := direct.Await(ctx, v.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	c := New(flaky.URL, WithRetry(Retry{Max: 3, Base: time.Millisecond}))
	state, err := c.Watch(ctx, v.ID, nil)
	if err != nil {
		t.Fatalf("watch exhausted its reconnect budget despite per-connection progress: %v", err)
	}
	if state != api.StateDone {
		t.Fatalf("terminal state = %s, want done", state)
	}
}

// Watch on an unknown job must fail fast with the stable code, not retry.
func TestWatchNotFound(t *testing.T) {
	_, ts := newService(t, service.Options{Workers: 1})
	c := New(ts.URL, WithRetry(Retry{Max: 3, Base: time.Millisecond}))
	_, err := c.Watch(testCtx(t), "nope", nil)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
		t.Fatalf("err = %v, want not_found", err)
	}
}

// A non-2xx answer always surfaces as an *api.Error that remembers the HTTP
// status and the Retry-After hint it arrived with: the envelope where the
// body holds one (whatever its code), a code inferred from the status where
// an old server or an intermediary answered without one.
func TestErrorDecoding(t *testing.T) {
	for _, tc := range []struct {
		status            int
		retryAfter, body  string
		wantCode          string
		wantRetryAfterSec float64
	}{
		{http.StatusTeapot, "3", `{"code":"teapot","message":"short and stout"}`, "teapot", 3},
		{http.StatusServiceUnavailable, "9", `{"code":"queue_full","message":"m","retry_after_sec":1}`, api.CodeQueueFull, 1},
		{http.StatusBadGateway, "7", "<html>bad gateway</html>", api.CodeUnavailable, 7},
		{http.StatusNotFound, "", "404 page not found", api.CodeNotFound, 0},
		{http.StatusConflict, "", "", api.CodeTerminal, 0},
		{http.StatusTooManyRequests, "", "slow down", api.CodeQuotaExhausted, 0},
		{http.StatusBadRequest, "", "{}", api.CodeBadRequest, 0},
		{http.StatusForbidden, "", "no", api.CodeInternal, 0},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			if tc.retryAfter != "" {
				w.Header().Set("Retry-After", tc.retryAfter)
			}
			w.WriteHeader(tc.status)
			_, _ = w.Write([]byte(tc.body))
		}))
		_, err := New(ts.URL).Get(testCtx(t), "j1")
		ts.Close()
		var e *api.Error
		if !errors.As(err, &e) || e.Code != tc.wantCode || e.Status != tc.status || e.RetryAfter != tc.wantRetryAfterSec {
			t.Errorf("HTTP %d %q: got %+v (%v), want code %s, retry-after %g", tc.status, tc.body, e, err, tc.wantCode, tc.wantRetryAfterSec)
		}
	}
}

// A late-attached Stream must reassemble the volume bit-exactly from the
// result, with exactly-once slice accounting.
func TestStreamLateAttachBitExact(t *testing.T) {
	m, ts := newService(t, service.Options{Workers: 2})
	ctx := testCtx(t)
	c := New(ts.URL)
	v, err := c.Submit(ctx, api.Spec{Phantom: "shepplogan", NX: 16, NP: 32})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Await(ctx, v.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	want, err := m.Volume(v.ID)
	if err != nil {
		t.Fatal(err)
	}

	res, err := c.Stream(ctx, v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.State != api.StateDone || res.Slices != want.Nz {
		t.Fatalf("final=%s slices=%d", res.Final.State, res.Slices)
	}
	if res.Volume.Nx != want.Nx || res.Volume.Ny != want.Ny || res.Volume.Nz != want.Nz {
		t.Fatalf("dims %dx%dx%d, want %dx%dx%d",
			res.Volume.Nx, res.Volume.Ny, res.Volume.Nz, want.Nx, want.Ny, want.Nz)
	}
	for z := 0; z < want.Nz; z++ {
		a, b := res.Volume.SliceZ(z), want.SliceZ(z)
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("slice %d differs at %d: %v != %v", z, i, a.Data[i], b.Data[i])
			}
		}
	}
	if raw := int64(want.Nz * (8 + 4*want.Nx*want.Ny)); res.RawBytes != raw {
		t.Errorf("RawBytes %d, want %d", res.RawBytes, raw)
	}
}

// A Stream attached immediately after submit (typically mid-run) must see
// every slice exactly once and match the settled result bit-exactly.
func TestStreamMidRunExactlyOnce(t *testing.T) {
	m, ts := newService(t, service.Options{Workers: 2})
	ctx := testCtx(t)
	c := New(ts.URL)
	v, err := c.Submit(ctx, api.Spec{Phantom: "sphere", NX: 16, NP: 96, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	res, err := c.Stream(ctx, v.ID, func(z, total int) { order = append(order, z) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.State != api.StateDone {
		t.Fatalf("final state %s: %s", res.Final.State, res.Final.Error)
	}
	if len(order) != 16 || res.Slices != 16 {
		t.Fatalf("streamed %d slice callbacks / %d slices, want 16", len(order), res.Slices)
	}
	want, err := m.Volume(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	for z := 0; z < want.Nz; z++ {
		a, b := res.Volume.SliceZ(z), want.SliceZ(z)
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("slice %d differs at %d", z, i)
			}
		}
	}
}

// Streaming a cancelled job must surface the terminal code.
func TestStreamTerminalConflict(t *testing.T) {
	m, ts := newService(t, service.Options{Workers: 1, CacheBytes: -1})
	ctx := testCtx(t)
	c := New(ts.URL)
	// Occupy the single worker so the second job stays queued for certain.
	blocker, err := c.Submit(ctx, api.Spec{Phantom: "sphere", NX: 16, NP: 256})
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Submit(ctx, api.Spec{Phantom: "sphere", NX: 16, NP: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, v.ID); err != nil {
		t.Fatal(err)
	}
	if final, err := c.Await(ctx, v.ID, time.Millisecond); err == nil && final.State == api.StateCancelled {
		_, err = c.Stream(ctx, v.ID, nil)
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.Code != api.CodeTerminal {
			t.Fatalf("stream of cancelled job: %v, want terminal", err)
		}
	}
	_ = m
	if _, err := c.Await(ctx, blocker.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}
