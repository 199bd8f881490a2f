package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ifdk/internal/hpc/pfs"
	"ifdk/internal/service"
	"ifdk/pkg/api"
	"ifdk/pkg/client"
	"ifdk/pkg/volume"
)

// testLogger routes the router's structured log through t.Logf so fleet
// events land in the test output, correctly attributed per test.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// fleet is a router over n real ifdkd backends (full service.Manager +
// HTTP server each), the e2e fixture of the multi-node story.
type fleet struct {
	router   *Router
	routerTS *httptest.Server
	backends []*httptest.Server
	managers []*service.Manager
	names    []string
	// dropSubmits, per backend: while set, the backend loses the connection
	// of every POST /v1/jobs, a transport failure to the router. dropped
	// counts the connections lost.
	dropSubmits []*atomic.Bool
	dropped     atomic.Int64
}

func startFleet(t *testing.T, n int, optFor func(i int) service.Options) *fleet {
	t.Helper()
	f := &fleet{}
	var rbs []Backend
	for i := 0; i < n; i++ {
		opt := service.Options{Workers: 2}
		if optFor != nil {
			opt = optFor(i)
		}
		opt.NodeID = fmt.Sprintf("b%d", i)
		m := service.NewManager(opt)
		srv, drop := service.NewServer(m), new(atomic.Bool)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if drop.Load() && r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				f.dropped.Add(1)
				panic(http.ErrAbortHandler)
			}
			srv.ServeHTTP(w, r)
		}))
		f.dropSubmits = append(f.dropSubmits, drop)
		f.managers = append(f.managers, m)
		f.backends = append(f.backends, ts)
		f.names = append(f.names, opt.NodeID)
		rbs = append(rbs, Backend{Name: opt.NodeID, URL: ts.URL})
	}
	rt, err := New(Options{Backends: rbs, HealthEvery: 25 * time.Millisecond, DeadAfter: 2, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	f.router = rt
	f.routerTS = httptest.NewServer(rt)
	t.Cleanup(func() {
		f.routerTS.Close()
		rt.Close()
		for i, ts := range f.backends {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if err := f.managers[i].Shutdown(ctx); err != nil {
				t.Errorf("backend %d shutdown: %v", i, err)
			}
			cancel()
		}
	})
	return f
}

// backendOf maps a fleet job ID back to the node that minted it — the
// NodeID prefix is the attribution.
func backendOf(t *testing.T, id string) string {
	t.Helper()
	node, _, ok := strings.Cut(id, "-")
	if !ok {
		t.Fatalf("job id %q has no node prefix", id)
	}
	return node
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// Rendezvous hashing itself: deterministic, total over candidates, and
// removing one backend moves only that backend's keys.
func TestRendezvousStability(t *testing.T) {
	names := []string{"b0", "b1", "b2"}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	first := map[string]string{}
	hit := map[string]int{}
	for _, k := range keys {
		first[k] = rendezvous(k, names)
		hit[first[k]]++
		if got := rendezvous(k, names); got != first[k] {
			t.Fatalf("rendezvous(%q) not deterministic: %s vs %s", k, got, first[k])
		}
	}
	if len(hit) != 3 {
		t.Fatalf("64 keys landed on %d backends, want all 3 used: %v", len(hit), hit)
	}
	// Kill b1: its keys move, everyone else's stay.
	survivors := []string{"b0", "b2"}
	for _, k := range keys {
		got := rendezvous(k, survivors)
		if first[k] != "b1" && got != first[k] {
			t.Fatalf("key %q moved from %s to %s though its backend survived", k, first[k], got)
		}
		if first[k] == "b1" && got == "b1" {
			t.Fatal("dead backend still chosen")
		}
	}
}

// Jobs with distinct cache keys land on distinct backends deterministically,
// and resubmitting an identical spec returns to the same backend — as a
// cache hit, proving placement affinity keeps the fleet cache hot.
func TestRoutingDeterministicSpread(t *testing.T) {
	f := startFleet(t, 3, nil)
	c := client.New(f.routerTS.URL)
	ctx := testCtx(t)

	specs := make([]api.Spec, 8)
	for i := range specs {
		specs[i] = api.Spec{Phantom: []string{"sphere", "shepplogan", "industrial"}[i%3],
			NX: 16, NP: 32 + 32*i}
	}
	placed := map[int]string{}
	used := map[string]bool{}
	for i, s := range specs {
		v, err := c.Submit(ctx, s)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		placed[i] = backendOf(t, v.ID)
		used[placed[i]] = true
		if _, err := c.Await(ctx, v.ID, 5*time.Millisecond); err != nil {
			t.Fatalf("await %d: %v", i, err)
		}
	}
	if len(used) < 2 {
		t.Fatalf("8 distinct keys all landed on %v; rendezvous spread broken", used)
	}
	// Same specs again: same backends, served from their result caches.
	for i, s := range specs {
		v, err := c.Submit(ctx, s)
		if err != nil {
			t.Fatalf("resubmit %d: %v", i, err)
		}
		if got := backendOf(t, v.ID); got != placed[i] {
			t.Fatalf("spec %d moved from %s to %s on resubmission", i, placed[i], got)
		}
		if !v.CacheHit {
			t.Errorf("resubmitted spec %d missed the cache on its own backend", i)
		}
	}
	// The fleet list through the router sees every job exactly once.
	vs, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, v := range vs {
		seen[v.ID]++
	}
	if len(seen) != 16 {
		t.Fatalf("fleet list has %d distinct jobs, want 16", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("job %s listed %d times", id, n)
		}
	}
}

// A mid-run SSE + multipart stream consumer through the router must match a
// direct-backend consumer bit-exactly, with live (unbuffered) delivery and
// exactly-once slices.
func TestStreamThroughRouterBitExact(t *testing.T) {
	// Throttled reads stretch the run so the consumers provably attach
	// mid-run (the stream begins before the job settles).
	f := startFleet(t, 2, func(int) service.Options {
		return service.Options{Workers: 2, PFS: pfs.Config{ReadBW: 2e6, Throttle: true}}
	})
	c := client.New(f.routerTS.URL)
	ctx := testCtx(t)

	v, err := c.Submit(ctx, api.Spec{Phantom: "shepplogan", NX: 16, NP: 128})
	if err != nil {
		t.Fatal(err)
	}
	owner := backendOf(t, v.ID)

	// SSE watcher through the router, concurrent with the stream consumer.
	type watchOut struct {
		rounds, slices int
		state          api.State
		err            error
	}
	wc := make(chan watchOut, 1)
	go func() {
		var out watchOut
		out.state, out.err = c.Watch(ctx, v.ID, func(e api.Event) error {
			switch e.Type {
			case api.EventRound:
				out.rounds++
			case api.EventSlice:
				out.slices++
			}
			return nil
		})
		wc <- out
	}()

	var sawRunningMidStream bool
	res, err := c.Stream(ctx, v.ID, func(z, total int) {
		if !sawRunningMidStream {
			if view, err := c.Get(ctx, v.ID); err == nil && view.State == api.StateRunning {
				sawRunningMidStream = true
			}
		}
	})
	if err != nil {
		t.Fatalf("stream through router: %v", err)
	}
	w := <-wc
	if w.err != nil {
		t.Fatalf("watch through router: %v", w.err)
	}
	if w.state != api.StateDone || res.Final.State != api.StateDone {
		t.Fatalf("terminal states: watch %s, stream %s", w.state, res.Final.State)
	}
	if w.slices != 16 || res.Slices != 16 {
		t.Fatalf("SSE delivered %d slice events, stream %d parts; want 16 each", w.slices, res.Slices)
	}
	if w.rounds < 1 {
		t.Error("no round progress events crossed the router")
	}
	if !sawRunningMidStream {
		t.Log("note: job settled before a mid-stream running state was observed (timing)")
	}

	// The same stream taken directly from the owning backend must be
	// bit-identical.
	var directURL string
	for i, name := range f.names {
		if name == owner {
			directURL = f.backends[i].URL
		}
	}
	direct, err := client.New(directURL).Stream(ctx, v.ID, nil)
	if err != nil {
		t.Fatalf("direct stream: %v", err)
	}
	if len(direct.Volume.Data) != len(res.Volume.Data) {
		t.Fatalf("volume sizes differ: %d vs %d", len(direct.Volume.Data), len(res.Volume.Data))
	}
	for i := range direct.Volume.Data {
		if direct.Volume.Data[i] != res.Volume.Data[i] {
			t.Fatalf("routed stream differs from direct stream at voxel %d", i)
		}
	}

	// /slice/{z} proxies too (PNG of a written slice).
	resp, err := http.Get(f.routerTS.URL + "/v1/jobs/" + v.ID + "/slice/8")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "image/png" {
		t.Fatalf("slice through router: HTTP %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	// SSE resume through the router: a watcher reattaching with
	// Last-Event-ID must replay only the tail.
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, f.routerTS.URL+"/v1/jobs/"+v.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "3")
	eresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	first, ok := firstSSEEvent(t, eresp.Body)
	if !ok {
		t.Fatal("resumed SSE through router delivered nothing")
	}
	if first.Seq <= 3 {
		t.Fatalf("resume replayed seq %d <= Last-Event-ID 3", first.Seq)
	}
}

// firstSSEEvent decodes the first data frame of an SSE body.
func firstSSEEvent(t *testing.T, body io.Reader) (api.Event, bool) {
	t.Helper()
	next, stop := iter.Pull2(api.ReadEvents(body))
	defer stop()
	e, err, ok := next()
	if err != nil {
		t.Fatalf("bad SSE payload: %v", err)
	}
	return e, ok
}

// The route table is bounded: terminal routes are pruned oldest-first once
// the bound is exceeded, and pruned jobs remain reachable through the
// backend probe.
func TestRouteTableBounded(t *testing.T) {
	f := startFleet(t, 2, nil)
	f.router.mu.Lock()
	f.router.maxRoutes = 4 // shrink the bound before any submissions
	f.router.mu.Unlock()
	c := client.New(f.routerTS.URL)
	ctx := testCtx(t)
	var ids []string
	for i := 0; i < 10; i++ {
		v, err := c.Submit(ctx, api.Spec{Phantom: "sphere", NX: 16, NP: 32 + 32*i})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		if _, err := c.Await(ctx, v.ID, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	f.router.mu.Lock()
	routes := len(f.router.jobs)
	f.router.mu.Unlock()
	if routes > 4 {
		t.Fatalf("route table holds %d routes, want <= 4", routes)
	}
	// A pruned job is still reachable: resolve probes the backends.
	v, err := c.Get(ctx, ids[0])
	if err != nil || v.ID != ids[0] || v.State != api.StateDone {
		t.Fatalf("pruned job via probe: %+v, %v", v, err)
	}
}

// Fleet metrics aggregate across backends.
func TestMetricsFanIn(t *testing.T) {
	f := startFleet(t, 3, func(int) service.Options { return service.Options{Workers: 2} })
	c := client.New(f.routerTS.URL)
	ctx := testCtx(t)
	for i := 0; i < 4; i++ {
		v, err := c.Submit(ctx, api.Spec{Phantom: "sphere", NX: 16, NP: 32 + 32*i})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Await(ctx, v.ID, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Workers != 6 {
		t.Errorf("aggregate workers = %d, want 6 (3 backends × 2)", m.Workers)
	}
	if m.Completed != 4 {
		t.Errorf("aggregate completed = %d, want 4", m.Completed)
	}
	if m.Jobs["done"] != 4 {
		t.Errorf("aggregate jobs[done] = %d, want 4", m.Jobs["done"])
	}

	// Per-backend health listing.
	resp, err := http.Get(f.routerTS.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	var bh []api.BackendHealth
	err = json.NewDecoder(resp.Body).Decode(&bh)
	resp.Body.Close()
	if err != nil || len(bh) != 3 {
		t.Fatalf("backends = %+v, %v", bh, err)
	}
	jobs := 0
	for _, b := range bh {
		if !b.Alive {
			t.Errorf("backend %s reported dead", b.Name)
		}
		jobs += b.Jobs
	}
	if jobs != 4 {
		t.Errorf("routed job count = %d, want 4", jobs)
	}
}

// Killing a backend reroutes every non-terminal job the router saw on it —
// queued AND running — to a surviving backend, preserving their public IDs.
// The running job is re-executed from scratch on the survivor (deterministic
// reconstruction makes the re-run equivalent); the client polling it sees it
// complete under its original ID, never a dead end.
func TestFailoverPendingJobsOnBackendDeath(t *testing.T) {
	// One worker per backend and slow reads: the first job per backend
	// runs for seconds, everything behind it stays queued.
	f := startFleet(t, 3, func(int) service.Options {
		return service.Options{Workers: 1, CacheBytes: -1,
			PFS: pfs.Config{ReadBW: 1e6, Throttle: true}}
	})
	c := client.New(f.routerTS.URL)
	ctx := testCtx(t)

	// Submit distinct specs until some backend owns at least two jobs
	// (first = running, rest = queued behind the single worker).
	owners := map[string][]string{} // backend → job IDs in submit order
	var victim string
	for i := 0; i < 24 && victim == ""; i++ {
		v, err := c.Submit(ctx, api.Spec{Phantom: "sphere", NX: 16, NP: 64 + 32*i})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		b := backendOf(t, v.ID)
		owners[b] = append(owners[b], v.ID)
		if len(owners[b]) >= 3 {
			victim = b
		}
	}
	if victim == "" {
		t.Fatalf("no backend accumulated 3 jobs: %v", owners)
	}
	runningID, queuedIDs := owners[victim][0], owners[victim][1:]

	// Observe the first job running through the router (recording its state
	// — the predicate that exempts it from failover). It may still be
	// staging; poll briefly.
	deadline := time.Now().Add(30 * time.Second)
	for {
		view, err := c.Get(ctx, runningID)
		if err != nil {
			t.Fatal(err)
		}
		if view.State == api.StateRunning {
			break
		}
		if view.State.Terminal() {
			t.Skipf("blocker finished before the kill (%s); environment too fast for this scenario", view.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocker stuck %s", view.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill the victim backend: hard server close, manager torn down.
	var victimIdx int
	for i, name := range f.names {
		if name == victim {
			victimIdx = i
		}
	}
	f.backends[victimIdx].CloseClientConnections()
	f.backends[victimIdx].Close()

	// Public identity survives failover on every verb, DELETE included:
	// cancelling the last queued job once it has been reissued on a survivor
	// must acknowledge under the public ID (the backend's acknowledgement
	// names the reissued one) and fold the cancellation into the route.
	cancelID := queuedIDs[len(queuedIDs)-1]
	queuedIDs = queuedIDs[:len(queuedIDs)-1]
	routeOf := func(id string) jobRoute {
		f.router.mu.Lock()
		defer f.router.mu.Unlock()
		return *f.router.jobs[id]
	}
	for deadline := time.Now().Add(30 * time.Second); routeOf(cancelID).backendID == cancelID; {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never failed over", cancelID)
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequestWithContext(ctx, http.MethodDelete, f.routerTS.URL+"/v1/jobs/"+cancelID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ack map[string]string
	err = json.NewDecoder(dresp.Body).Decode(&ack)
	dresp.Body.Close()
	if err != nil || dresp.StatusCode != http.StatusAccepted || ack["id"] != cancelID || ack["action"] != "cancelled" {
		t.Fatalf("DELETE of rerouted job %s (reissued as %s): HTTP %d %v (%v), want 202 under the public ID",
			cancelID, routeOf(cancelID).backendID, dresp.StatusCode, ack, err)
	}
	if st := routeOf(cancelID).state; st != api.StateCancelled {
		t.Errorf("route state after the cancel = %q, want cancelled", st)
	}

	// The router's health loop must mark it dead and reroute every
	// non-terminal job — the queued ones and the one caught running; their
	// public IDs keep working through the router and complete on a
	// surviving backend.
	for _, id := range append([]string{runningID}, queuedIDs...) {
		final, err := c.Await(ctx, id, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("rerouted job %s: %v", id, err)
		}
		if final.State != api.StateDone {
			t.Fatalf("rerouted job %s ended %s: %s", id, final.State, final.Error)
		}
		if final.ID != id {
			t.Fatalf("public ID changed across failover: %s -> %s", id, final.ID)
		}
	}
	if got := f.router.Reroutes(); got < int64(len(queuedIDs)+2) {
		t.Errorf("router rerouted %d jobs, want >= %d", got, len(queuedIDs)+2)
	}

	// The dead backend is reported in the health listing.
	resp, err := http.Get(f.routerTS.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	var bh []api.BackendHealth
	err = json.NewDecoder(resp.Body).Decode(&bh)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bh {
		if b.Name == victim && b.Alive {
			t.Errorf("victim %s still reported alive", victim)
		}
	}
}

// A route whose failover resubmission fails is tried again on the next
// probe tick. The survivor loses the connection of every submission while
// the dead backend's queued job is first rerouted; once it takes
// submissions again, the job completes under its public ID.
func TestStrandedRouteFailsOverAgain(t *testing.T) {
	f := startFleet(t, 2, func(int) service.Options {
		return service.Options{Workers: 1, CacheBytes: -1,
			PFS: pfs.Config{ReadBW: 1e6, Throttle: true}}
	})
	c := client.New(f.routerTS.URL)
	ctx := testCtx(t)

	// Submit until one backend holds two jobs: one running, one queued
	// behind its single worker.
	owners := map[string][]string{}
	var victim string
	for i := 0; i < 16 && victim == ""; i++ {
		v, err := c.Submit(ctx, api.Spec{Phantom: "sphere", NX: 16, NP: 64 + 32*i})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		b := backendOf(t, v.ID)
		owners[b] = append(owners[b], v.ID)
		if len(owners[b]) == 2 {
			victim = b
		}
	}
	if victim == "" {
		t.Fatalf("no backend accumulated 2 jobs: %v", owners)
	}
	queued := owners[victim][1]
	v, err := c.Get(ctx, queued)
	if err != nil {
		t.Fatal(err)
	}
	if v.State.Terminal() {
		t.Skipf("queued job finished before the kill (%s); environment too fast for this scenario", v.State)
	}

	victimIdx := slices.Index(f.names, victim)
	survivorDrops := f.dropSubmits[1-victimIdx]
	survivorDrops.Store(true)
	f.backends[victimIdx].CloseClientConnections()
	f.backends[victimIdx].Close()
	for deadline := time.Now().Add(30 * time.Second); f.dropped.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("failover never tried the survivor")
		}
		time.Sleep(5 * time.Millisecond)
	}
	survivorDrops.Store(false)

	awaitCtx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	final, err := c.Await(awaitCtx, queued, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("stranded job %s: %v", queued, err)
	}
	if final.State != api.StateDone || final.ID != queued {
		t.Fatalf("stranded job %s ended %s as %s, want done under its public ID", queued, final.State, final.ID)
	}
}

// The relay tentpole: a client watching AND streaming a job through the
// router survives the owning backend's death mid-run. The relays hold the
// client connections open across the takeover, the job re-executes on a
// survivor under its original public ID, and the client sees one gapless
// strictly-increasing event stream plus an exactly-once slice set — never
// "unavailable", never a duplicate.
func TestRelaySurvivesBackendKillMidRun(t *testing.T) {
	f := startFleet(t, 2, func(int) service.Options {
		return service.Options{Workers: 1, CacheBytes: -1,
			PFS: pfs.Config{ReadBW: 1e6, Throttle: true}}
	})
	c := client.New(f.routerTS.URL)
	ctx := testCtx(t)

	v, err := c.Submit(ctx, api.Spec{Phantom: "shepplogan", NX: 16, NP: 96})
	if err != nil {
		t.Fatal(err)
	}
	id := v.ID
	victim := backendOf(t, id)

	// Wait until the job is provably mid-run before attaching the consumers.
	deadline := time.Now().Add(30 * time.Second)
	for {
		view, err := c.Get(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if view.State == api.StateRunning {
			break
		}
		if view.State.Terminal() {
			t.Skipf("job finished before the kill (%s); environment too fast for this scenario", view.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck %s", view.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// SSE watcher through the relay. Every event must carry the public ID
	// with strictly increasing sequence numbers — across the takeover.
	type watchOut struct {
		state api.State
		err   error
	}
	firstEvent := make(chan struct{})
	gotEvent := false
	var lastSeq int64
	wc := make(chan watchOut, 1)
	go func() {
		var out watchOut
		out.state, out.err = c.Watch(ctx, id, func(e api.Event) error {
			if !gotEvent {
				gotEvent = true
				close(firstEvent)
			}
			if e.Job != id {
				return fmt.Errorf("event for %q leaked a backend ID", e.Job)
			}
			if e.Seq <= lastSeq {
				return fmt.Errorf("seq not strictly increasing: %d after %d", e.Seq, lastSeq)
			}
			lastSeq = e.Seq
			return nil
		})
		wc <- out
	}()

	// Multipart stream consumer through the relay, concurrently.
	type streamOut struct {
		res *client.StreamResult
		err error
	}
	sc := make(chan streamOut, 1)
	go func() {
		res, err := c.Stream(ctx, id, nil)
		sc <- streamOut{res, err}
	}()

	// Both consumers attached (the watcher demonstrably receiving frames):
	// kill the owning backend mid-run.
	select {
	case <-firstEvent:
	case <-time.After(30 * time.Second):
		t.Fatal("watcher received nothing before the kill")
	}
	var victimIdx int
	for i, name := range f.names {
		if name == victim {
			victimIdx = i
		}
	}
	f.backends[victimIdx].CloseClientConnections()
	f.backends[victimIdx].Close()

	w := <-wc
	if w.err != nil {
		t.Fatalf("watch across the takeover: %v", w.err)
	}
	if w.state != api.StateDone {
		t.Fatalf("watch ended %s, want done", w.state)
	}
	s := <-sc
	if s.err != nil {
		t.Fatalf("stream across the takeover: %v", s.err)
	}
	if s.res.Final.State != api.StateDone || s.res.Final.ID != id {
		t.Fatalf("stream final = %+v, want done under the original ID", s.res.Final)
	}
	if s.res.Slices != 16 {
		t.Fatalf("stream delivered %d slices, want exactly 16", s.res.Slices)
	}
	if got := f.router.relayTakeovers.Load(); got < 1 {
		t.Errorf("relay takeovers = %d, want >= 1", got)
	}

	// Deterministic re-execution: the relayed volume is bit-identical to the
	// survivor's own copy of the job (known there under its takeover ID).
	var survivorURL string
	for i, name := range f.names {
		if name != victim {
			survivorURL = f.backends[i].URL
		}
	}
	f.router.mu.Lock()
	route, ok := f.router.jobs[id]
	f.router.mu.Unlock()
	if !ok {
		t.Fatalf("route for %s gone after the takeover", id)
	}
	direct, err := client.New(survivorURL).Stream(ctx, route.backendID, nil)
	if err != nil {
		t.Fatalf("direct stream from survivor: %v", err)
	}
	for i := range direct.Volume.Data {
		if direct.Volume.Data[i] != s.res.Volume.Data[i] {
			t.Fatalf("relayed volume differs from the survivor's at voxel %d", i)
		}
	}
}

// Terminal routes expire after TerminalTTL without route-bound pressure; the
// job stays reachable because resolve falls back to probing the backends.
func TestTerminalRouteTTLExpiry(t *testing.T) {
	f := startFleet(t, 2, nil)
	f.router.mu.Lock()
	f.router.opt.TerminalTTL = 50 * time.Millisecond // prune rides the 25ms probe tick
	f.router.mu.Unlock()
	c := client.New(f.routerTS.URL)
	ctx := testCtx(t)

	v, err := c.Submit(ctx, api.Spec{Phantom: "sphere", NX: 16, NP: 32})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Await(ctx, v.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		f.router.mu.Lock()
		_, present := f.router.jobs[v.ID]
		f.router.mu.Unlock()
		if !present {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("terminal route for %s never expired", v.ID)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := f.router.routesExpired.Load(); got < 1 {
		t.Errorf("routes expired = %d, want >= 1", got)
	}
	got, err := c.Get(ctx, v.ID)
	if err != nil || got.ID != v.ID || got.State != api.StateDone {
		t.Fatalf("expired-route job unreachable: %+v, %v", got, err)
	}
}

// A progressive stream relayed through the router must keep both tiers: the
// coarse preview parts (factor-marked, coarse z indices) strictly before
// the first full-resolution part, and every full slice after — the relay's
// takeover dedup keys on (preview factor, z), so a full slice must never be
// swallowed because a preview slice already used its index. The preview
// artifact endpoint proxies through as well.
func TestProgressiveStreamThroughRouter(t *testing.T) {
	f := startFleet(t, 2, nil)
	ctx := testCtx(t)
	c := client.New(f.routerTS.URL)

	v, err := c.Submit(ctx, api.Spec{Phantom: "shepplogan", NX: 16, R: 2, C: 2, Quality: api.QualityProgressive})
	if err != nil {
		t.Fatal(err)
	}
	sawFull := false
	res, err := c.StreamProgressive(ctx, v.ID, client.StreamHooks{
		OnSlice: func(int, int) { sawFull = true },
		OnPreview: func(z, total, factor int) {
			if sawFull {
				t.Errorf("preview part z=%d after a full-resolution part", z)
			}
			if factor != 2 || total != 8 {
				t.Errorf("preview part z=%d factor=%d total=%d, want 2/8", z, factor, total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final.State != api.StateDone {
		t.Fatalf("stream ended %s (%s), want done", res.Final.State, res.Final.Error)
	}
	if res.PreviewFactor != 2 || res.PreviewSlices != 8 || res.Preview == nil || res.Preview.Nz != 8 {
		t.Fatalf("preview tier lost in relay: factor=%d slices=%d", res.PreviewFactor, res.PreviewSlices)
	}
	// The dedup regression: all 16 full slices must survive the relay even
	// though preview parts already used indices 0..7.
	if res.Slices != 16 || res.Volume == nil || res.Volume.Nz != 16 {
		t.Fatalf("full tier truncated through the router: %d slices", res.Slices)
	}

	pv, factor, err := c.Preview(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if factor != 2 || pv.Nz != 8 {
		t.Fatalf("proxied preview artifact: factor=%d nz=%d, want 2/8", factor, pv.Nz)
	}
	if d, err := volume.MaxAbsDiff(pv, res.Preview); err != nil || d != 0 {
		t.Fatalf("preview artifact differs from streamed tier: maxAbsDiff=%g err=%v", d, err)
	}

	// Quality-aware routing: preview-quality submissions of the same scan
	// may land on a different shard (distinct key), but must be deterministic.
	pk1, err := service.SpecKey(api.Spec{Phantom: "shepplogan", NX: 16, R: 2, C: 2, Quality: api.QualityPreview})
	if err != nil {
		t.Fatal(err)
	}
	fk, err := service.SpecKey(api.Spec{Phantom: "shepplogan", NX: 16, R: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pk1 == fk {
		t.Fatal("preview and full specs share a routing key")
	}
}

// The router's error contract: whatever a daemon would have answered —
// status, code, Retry-After header, retry_after_sec — is what the caller
// gets through the router, whether the router relays a backend's refusal or
// refuses on the backend's behalf, and also for a code this router build has
// never heard of.
func TestErrorRelayIsVerbatim(t *testing.T) {
	// One quota-limited backend with slow reads: a job stays live long
	// enough to be cancelled, and a third submission per client is refused.
	f := startFleet(t, 1, func(int) service.Options {
		return service.Options{Workers: 1, QuotaRPS: 0.01, QuotaBurst: 2,
			PFS: pfs.Config{ReadBW: 1e6, Throttle: true}}
	})
	ctx := testCtx(t)
	c := client.New(f.routerTS.URL)
	cancelled, err := c.Submit(ctx, api.Spec{Phantom: "sphere", NX: 16, NP: 64, Client: "setup"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, cancelled.ID); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Await(ctx, cancelled.ID, 5*time.Millisecond); err != nil || v.State != api.StateCancelled {
		t.Fatalf("setup job: %+v, %v; want cancelled", v, err)
	}

	// A backend from the future: every submission is refused with a status
	// and a code that are in no table of this build.
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Retry-After", "3")
		api.WriteJSON(w, http.StatusTeapot, map[string]any{"code": "teapot", "message": "short and stout", "retry_after_sec": 3})
	}))
	defer stub.Close()
	stubRT, err := New(Options{Backends: []Backend{{Name: "s0", URL: stub.URL}}, HealthEvery: time.Second, Logger: testLogger(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer stubRT.Close()
	stubFront := httptest.NewServer(stubRT)
	defer stubFront.Close()

	type answer struct {
		status     int
		code       string
		retryAfter string  // the header
		retrySec   float64 // the envelope field
	}
	// ask sends the request `times` times and reports the last answer; CLIENT
	// in the body becomes a per-side client id, so each side drains its own
	// quota bucket.
	ask := func(base, side, method, path, body string, times int) answer {
		t.Helper()
		var a answer
		for i := 0; i < times; i++ {
			req, err := http.NewRequestWithContext(ctx, method, base+path, strings.NewReader(strings.ReplaceAll(body, "CLIENT", side)))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var e api.Error
			_ = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			a = answer{resp.StatusCode, e.Code, resp.Header.Get("Retry-After"), e.RetryAfter}
		}
		return a
	}
	daemon := f.backends[0].URL
	rows := []struct {
		name, method, path, body string
		times                    int
		router, direct           string
		want                     answer
	}{
		{"invalid spec", "POST", "/v1/jobs", `{"phantom":"no-such-phantom","nx":16}`, 1, f.routerTS.URL, daemon, answer{400, api.CodeInvalidSpec, "", 0}},
		{"malformed JSON", "POST", "/v1/jobs", `{"phantom":`, 1, f.routerTS.URL, daemon, answer{400, api.CodeBadRequest, "", 0}},
		{"get unknown", "GET", "/v1/jobs/nope", "", 1, f.routerTS.URL, daemon, answer{404, api.CodeNotFound, "", 0}},
		{"delete unknown", "DELETE", "/v1/jobs/nope", "", 1, f.routerTS.URL, daemon, answer{404, api.CodeNotFound, "", 0}},
		{"trace unknown", "GET", "/v1/jobs/nope/trace", "", 1, f.routerTS.URL, daemon, answer{404, api.CodeNotFound, "", 0}},
		{"events unknown", "GET", "/v1/jobs/nope/events", "", 1, f.routerTS.URL, daemon, answer{404, api.CodeNotFound, "", 0}},
		{"stream unknown", "GET", "/v1/jobs/nope/stream", "", 1, f.routerTS.URL, daemon, answer{404, api.CodeNotFound, "", 0}},
		{"over quota", "POST", "/v1/jobs", `{"phantom":"sphere","nx":16,"np":96,"client":"CLIENT"}`, 3, f.routerTS.URL, daemon, answer{429, api.CodeQuotaExhausted, "1", 1}},
		{"stream of a cancelled job", "GET", "/v1/jobs/" + cancelled.ID + "/stream", "", 1, f.routerTS.URL, daemon, answer{409, api.CodeTerminal, "", 0}},
		{"slice of an unknown job", "GET", "/v1/jobs/nope/slice/0", "", 1, f.routerTS.URL, daemon, answer{404, api.CodeNotFound, "", 0}},
		{"slice out of range", "GET", "/v1/jobs/" + cancelled.ID + "/slice/999", "", 1, f.routerTS.URL, daemon, answer{400, api.CodeBadRequest, "", 0}},
		{"preview of a full-quality job", "GET", "/v1/jobs/" + cancelled.ID + "/preview", "", 1, f.routerTS.URL, daemon, answer{400, api.CodeBadRequest, "", 0}},
		{"unknown code and status", "POST", "/v1/jobs", `{"phantom":"sphere","nx":16}`, 1, stubFront.URL, stub.URL, answer{418, "teapot", "3", 3}},
	}
	for _, row := range rows {
		direct := ask(row.direct, "direct", row.method, row.path, row.body, row.times)
		routed := ask(row.router, "routed", row.method, row.path, row.body, row.times)
		if direct != row.want {
			t.Errorf("%s: daemon answered %+v, want %+v", row.name, direct, row.want)
		}
		if routed != direct {
			t.Errorf("%s: through the router %+v, straight to the daemon %+v", row.name, routed, direct)
		}
	}
}
