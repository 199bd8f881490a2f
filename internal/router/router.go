// Package router is the front of an ifdkd fleet: one HTTP endpoint that
// speaks the same versioned pkg/api contract as a single daemon, backed by
// N reconstruction backends. It is the serving-side half of the paper's
// scalability story — the compute plane already partitions across a rank
// grid (Fig. 3), and the router partitions the *service* across nodes.
//
// Placement is rendezvous hashing on the job's content cache key
// (service.SpecKey): every submission of the same reconstruction lands on
// the same backend, so each backend's result cache and staged datasets stay
// as hot as a single node's would — adding nodes multiplies capacity
// without multiplying cold misses. Rendezvous (highest-random-weight)
// hashing means a dead backend reshuffles only its own keys.
//
// The router proxies the full v1 surface, including the streaming
// endpoints: SSE event streams (with Last-Event-ID resume) and mid-run
// multipart slice streams pass through unbuffered. /v1/metrics fans in all
// live backends into one fleet-aggregate snapshot (with per-backend health
// and scrape latency riding along); GET /metrics serves the router's own
// ifdk_router_* registry as Prometheus text. Submissions carry W3C trace
// context: the router inherits or mints a traceparent, interposes its proxy
// span, and GET /v1/jobs/{id}/trace returns the backend's span tree with
// the router hop appended. A health loop probes
// /healthz; when a backend dies, every job the router last saw non-terminal
// on it — queued or running — is resubmitted to a surviving backend under
// its original public ID. Reconstruction is deterministic given the Spec,
// so re-executing a running job from scratch on a survivor yields the same
// bits its first execution would have; the partial state on the dead node
// is simply abandoned. SSE and slice-stream subscribers ride across the
// takeover: the router terminates those streams itself (relay.go) instead
// of raw-proxying them, so a backend death mid-stream becomes a reconnect
// to the survivor rather than a client-visible "unavailable".
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ifdk/internal/obs"
	"ifdk/internal/service"
	"ifdk/pkg/api"
	"ifdk/pkg/client"
)

// Backend names one ifdkd instance behind the router.
type Backend struct {
	Name string // stable identity in the hash ring (e.g. "b0")
	URL  string // base URL, e.g. "http://10.0.0.7:8080"
}

// Options configures a Router.
type Options struct {
	Backends    []Backend
	HealthEvery time.Duration // health probe period (default 500ms)
	DeadAfter   int           // consecutive probe failures before a backend is dead (default 2)
	TerminalTTL time.Duration // terminal routes expire after this (default 10m; negative is refused)
	// FailoverWait bounds how long a relayed event/slice stream waits for a
	// dead route to fail over to a survivor before giving up on the client
	// connection (default 30s). It must comfortably cover death detection
	// (HealthEvery × DeadAfter) plus the resubmission round trip.
	FailoverWait time.Duration
	Logger       *slog.Logger // structured event log (default: discard)
}

const (
	// callTimeout bounds every JSON and health call to a backend.
	callTimeout = 15 * time.Second
	// maxRoutes bounds the route table; terminal routes are evicted first.
	maxRoutes = 8192
	// idlePerBackend is how many idle connections the router keeps to each
	// backend. Every watched job holds an /events relay and a /stream relay
	// to its backend beside the JSON calls, so a few clients already keep
	// more than http.DefaultTransport's 2 per host busy at once; with 2, a
	// finished relay's connection is closed and the next call dials again,
	// about once per job.
	idlePerBackend = 32
)

func (o Options) withDefaults() Options {
	if o.HealthEvery <= 0 {
		o.HealthEvery = 500 * time.Millisecond
	}
	if o.DeadAfter <= 0 {
		o.DeadAfter = 2
	}
	if o.TerminalTTL == 0 {
		o.TerminalTTL = 10 * time.Minute
	}
	if o.FailoverWait <= 0 {
		o.FailoverWait = 30 * time.Second
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
	return o
}

// backendState is one backend plus its health bookkeeping. The router is an
// SDK client of its backends: every JSON call goes through client (bounded
// by callTimeout), every streamed body — /events, /stream, /slice/{z} —
// through stream (no overall timeout — streams legitimately live for
// minutes; cancellation rides on each inbound request's context). Both are
// fixed at New.
type backendState struct {
	Backend
	client        *client.Client
	stream        *client.Client
	alive         bool
	fails         int           // consecutive failed probes
	probeLatency  time.Duration // last health probe round trip
	scrapeLatency time.Duration // last /v1/metrics scrape round trip
	nodeWarned    bool          // one-shot warning about a missing/mismatched -node id
	stranded      bool          // "no live backend" logged and no survivor since (health loop only)
}

// jobRoute records where a public job ID lives. backendID differs from the
// public ID only after a failover resubmission. The trace fields hold the
// router's hop in the job's span tree: clientSpan is the caller's parent
// span (empty when the caller sent no traceparent), routerSpan is the proxy
// span the router interposed — the backend's job span parents under it.
// Routes discovered by probing (resolve) have no trace fields; their traces
// relay without a router span. Router.apply (routes.go) writes the
// placement, state, terminalAt and seq.
type jobRoute struct {
	backend    string
	backendID  string
	spec       api.Spec
	state      api.State // last state the router observed for the job
	terminalAt time.Time // when the router first observed a terminal state (zero while live)
	seq        uint64    // insertion order, for eviction

	traceID    string
	clientSpan string
	routerSpan string
	proxyStart time.Time
	proxyDur   time.Duration
}

// Router is an http.Handler fronting a fleet of ifdkd backends.
type Router struct {
	opt Options
	mux *http.ServeMux
	log *slog.Logger
	met *routerMetrics

	// backends' key set is fixed at New and so are each entry's Backend and
	// clients; only the entries' health fields change, under mu.
	mu        sync.Mutex
	backends  map[string]*backendState
	names     []string // stable iteration order
	jobs      map[string]*jobRoute
	seq       uint64 // last route insertion number
	maxRoutes int

	reroutes        atomic.Int64 // jobs failed over after backend death
	reroutesRunning atomic.Int64 // of those, jobs last observed running (re-executed from scratch)
	relayTakeovers  atomic.Int64 // relayed streams that reattached to a surviving backend
	routesExpired   atomic.Int64 // terminal routes dropped by TTL expiry
	stop            chan struct{}
	healthWG        sync.WaitGroup
	startOnce       sync.Once
	transport       *http.Transport // shared by every backend call, relay and probe
}

// New builds a router over the given backends and starts its health loop.
// Call Close to stop it.
func New(opt Options) (*Router, error) {
	if opt.TerminalTTL < 0 {
		return nil, fmt.Errorf("router: negative terminal TTL %v", opt.TerminalTTL)
	}
	opt = opt.withDefaults()
	if len(opt.Backends) == 0 {
		return nil, fmt.Errorf("router: no backends configured")
	}
	rt := &Router{
		opt:       opt,
		mux:       http.NewServeMux(),
		log:       opt.Logger,
		backends:  make(map[string]*backendState),
		jobs:      make(map[string]*jobRoute),
		maxRoutes: maxRoutes,
		stop:      make(chan struct{}),
	}
	rt.transport = http.DefaultTransport.(*http.Transport).Clone()
	rt.transport.MaxIdleConns = idlePerBackend * len(opt.Backends)
	rt.transport.MaxIdleConnsPerHost = idlePerBackend
	callHTTP := &http.Client{Timeout: callTimeout, Transport: rt.transport}
	streamHTTP := &http.Client{Transport: rt.transport}
	for _, b := range opt.Backends {
		if b.Name == "" || b.URL == "" {
			return nil, fmt.Errorf("router: backend needs both name and URL (%+v)", b)
		}
		if _, dup := rt.backends[b.Name]; dup {
			return nil, fmt.Errorf("router: duplicate backend name %q", b.Name)
		}
		if _, err := url.Parse(b.URL); err != nil {
			return nil, fmt.Errorf("router: backend %s: %w", b.Name, err)
		}
		rt.backends[b.Name] = &backendState{Backend: b, alive: true,
			// One attempt per call: retrying is the caller's decision (the SDK
			// in front of the router, or failover), never stacked in the hop.
			client: client.New(b.URL, client.WithHTTPClient(callHTTP), client.WithRetry(client.Retry{Max: 1})),
			stream: client.New(b.URL, client.WithHTTPClient(streamHTTP), client.WithRetry(client.Retry{Max: 1}))}
		rt.names = append(rt.names, b.Name)
	}
	sort.Strings(rt.names)
	rt.met = newRouterMetrics(rt)

	rt.mux.HandleFunc("POST /v1/jobs", rt.submit)
	rt.mux.HandleFunc("GET /v1/jobs", rt.list)
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.get)
	rt.mux.HandleFunc("DELETE /v1/jobs/{id}", rt.remove)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/events", rt.relayEvents)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/stream", rt.relayStream)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/slice/{z}", rt.proxySlice)
	rt.mux.HandleFunc("GET /v1/jobs/{id}/trace", rt.trace)
	rt.mux.HandleFunc("GET /v1/metrics", rt.metrics)
	rt.mux.Handle("GET /metrics", rt.met.reg.Handler())
	rt.mux.HandleFunc("GET /v1/backends", func(w http.ResponseWriter, _ *http.Request) {
		api.WriteJSON(w, http.StatusOK, rt.backendHealth())
	})
	rt.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		api.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "role": "router"})
	})

	rt.healthWG.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Close stops the health loop and closes the idle connections to the
// backends, so that no backend's shutdown waits on one. In-flight proxied
// requests are unaffected.
//
//ifdk:noctx shutdown join: the wait is bounded by the health loop observing stop
func (rt *Router) Close() {
	rt.startOnce.Do(func() { close(rt.stop) })
	rt.healthWG.Wait()
	rt.transport.CloseIdleConnections()
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// Reroutes returns how many pending jobs have been failed over so far.
func (rt *Router) Reroutes() int64 { return rt.reroutes.Load() }

// relayErr re-emits a backend's own verdict unchanged: the status (recorded
// by the SDK's decoder) and Retry-After it arrived with, also for a code
// this router build does not know.
func relayErr(w http.ResponseWriter, e *api.Error) {
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(e.RetryAfter))))
	}
	api.WriteJSON(w, e.Status, e)
}

// fail answers a request that could not be served off the job's backend:
// the fleet does not know the job, its backend is down, the backend refused
// (its verdict relays verbatim), or the call itself failed in transport.
func fail(w http.ResponseWriter, r *http.Request, backend string, err error) {
	var verdict *api.Error
	switch {
	case errors.Is(err, errNoRoute):
		api.WriteError(w, api.CodeNotFound, "no such job %q in the fleet", r.PathValue("id"))
	case errors.Is(err, errBackendDown):
		api.WriteError(w, api.CodeUnavailable, "backend %s for job %s is down", backend, r.PathValue("id"))
	case errors.As(err, &verdict):
		relayErr(w, verdict)
	default:
		api.WriteError(w, api.CodeUnavailable, "backend %s: %v", backend, err)
	}
}

// rendezvous picks the backend owning key among candidates by
// highest-random-weight hashing: deterministic for a fixed candidate set,
// and removing one candidate moves only that candidate's keys.
func rendezvous(key string, candidates []string) string {
	var best string
	var bestScore uint64
	for _, name := range candidates {
		h := fnv.New64a()
		_, _ = io.WriteString(h, key)
		_, _ = io.WriteString(h, "|")
		_, _ = io.WriteString(h, name)
		if s := h.Sum64(); best == "" || s > bestScore {
			best, bestScore = name, s
		}
	}
	return best
}

// aliveNames snapshots the currently-live backend names in stable order.
func (rt *Router) aliveNames() []string {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]string, 0, len(rt.names))
	for _, n := range rt.names {
		if rt.backends[n].alive {
			out = append(out, n)
		}
	}
	return out
}

// markFailure records a failed backend call against the backend's health,
// counting a transport failure like a failed health probe so a hard-down
// node is retired without waiting a full probe period. An *api.Error is not
// a failure of the node — the backend answered — and neither is an inbound
// client that gave up: a cancelled or timed-out client request says nothing
// about the node, and counting it would let an impatient client (or two)
// declare healthy backends dead and trigger failover that runs queued jobs
// twice.
func (rt *Router) markFailure(ctx context.Context, name string, err error) {
	var verdict *api.Error
	if err == nil || errors.As(err, &verdict) || ctx.Err() != nil {
		return
	}
	rt.met.backendErrors.With(name).Inc()
	rt.observeHealth(name, false)
}

// observeHealth folds one probe result into a backend's state; failover
// follows on the probe tick.
func (rt *Router) observeHealth(name string, ok bool) {
	rt.mu.Lock()
	b := rt.backends[name]
	if b == nil {
		rt.mu.Unlock()
		return
	}
	var died bool
	if ok {
		if !b.alive {
			rt.log.Info("backend back alive", "backend", name)
		}
		b.alive, b.fails = true, 0
	} else {
		b.fails++
		if b.alive && b.fails >= rt.opt.DeadAfter {
			b.alive = false
			died = true
		}
	}
	alive, fails := b.alive, b.fails
	rt.mu.Unlock()
	var g float64
	if alive {
		g = 1
	}
	rt.met.alive.With(name).Set(g)
	rt.met.probeFails.With(name).Set(float64(fails))
	if died {
		rt.log.Warn("backend dead; rerouting pending jobs",
			"backend", name, "fails", fails, "dead_after", rt.opt.DeadAfter)
	}
}

// checkNodeID warns (once per backend) when a backend's reported node id
// does not match the router's name for it. Fleet-unique job IDs — and with
// them the route table's integrity — depend on every ifdkd running with a
// distinct -node: without one, two backends both mint "j00000001" and the
// router would silently serve one client the other's job.
func (rt *Router) checkNodeID(name, node string) {
	rt.mu.Lock()
	b := rt.backends[name]
	warn := b != nil && !b.nodeWarned && node != name
	if warn {
		b.nodeWarned = true
	}
	rt.mu.Unlock()
	if !warn {
		return
	}
	if node == "" {
		rt.log.Warn("backend runs without -node; job IDs can collide across the fleet",
			"backend", name, "hint", "start it with 'ifdkd -node "+name+"'")
	} else {
		rt.log.Warn("backend node id does not match its registered name; job-ID attribution needs them equal",
			"backend", name, "node", node, "hint", "start it with 'ifdkd -node "+name+"' or register it as "+node+"=")
	}
}

func (rt *Router) healthLoop() {
	defer rt.healthWG.Done()
	tick := time.NewTicker(rt.opt.HealthEvery)
	defer tick.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-tick.C:
		}
		// Probe timeout floors at 2s regardless of the probe period: a
		// slow-but-alive backend (busy CPU, GC pause) must not be declared
		// dead by an impatient probe — a dead one fails fast anyway
		// (connection refused), so kill detection stays prompt.
		probeTimeout := rt.opt.HealthEvery * 4
		if probeTimeout < 2*time.Second {
			probeTimeout = 2 * time.Second
		}
		for _, name := range rt.names {
			b := rt.backends[name]
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			var node struct {
				Node string `json:"node"`
			}
			probe0 := time.Now()
			resp, err := b.client.Open(ctx, http.MethodGet, "/healthz", nil, nil)
			if err == nil {
				_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<12)).Decode(&node)
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			ok := err == nil
			probeDur := time.Since(probe0)
			cancel()
			rt.met.probeSeconds.With(name).Observe(probeDur.Seconds())
			rt.mu.Lock()
			b.probeLatency = probeDur
			rt.mu.Unlock()
			if ok {
				rt.checkNodeID(name, node.Node)
			}
			rt.observeHealth(name, ok)
		}
		// Failover and terminal-route expiry ride the probe tick: a route
		// whose resubmission failed, or that had no survivor to go to, is
		// tried again on the next tick, and a quiet router (no submissions,
		// no lookups) still forgets finished jobs on time.
		for _, name := range rt.names {
			rt.failover(name)
		}
		rt.mu.Lock()
		rt.pruneLocked()
		rt.mu.Unlock()
	}
}

// failover resubmits every job the router last observed non-terminal on the
// dead backend — queued or running — to a surviving one, preserving the
// public job ID. Reconstruction is a pure function of the Spec, so
// re-executing a running job from scratch on a survivor converges on the
// exact volume its first execution would have produced; the partial output
// on the dead node is abandoned rather than recovered (deterministic
// re-execution trades wasted compute for zero replication cost — replicated
// PFS would be the exact-resume alternative). Jobs observed terminal keep
// their dead route and surface "unavailable" until expiry: their result
// died with the node, and silently recomputing a job the client already saw
// finish would be a new execution, not a recovery. It runs on every probe
// tick and does nothing while the backend is alive, so a route whose
// resubmission failed is tried again on the next tick; the move guard
// makes a repeated attempt harmless.
func (rt *Router) failover(dead string) {
	type pending struct {
		id          string
		spec        api.Spec
		traceparent string
	}
	rt.mu.Lock()
	b := rt.backends[dead]
	if b.alive {
		rt.mu.Unlock()
		return
	}
	var moves []pending
	for id, route := range rt.jobs {
		if route.backend == dead && !route.state.Terminal() {
			mv := pending{id: id, spec: route.spec}
			// Re-forward the same trace context the original submission
			// carried: the resubmitted job keeps its trace ID, and its job
			// span still parents under the router's proxy span.
			if route.traceID != "" && route.routerSpan != "" {
				mv.traceparent = api.FormatTraceParent(route.traceID, route.routerSpan)
			}
			moves = append(moves, mv)
		}
	}
	rt.mu.Unlock()
	sort.Slice(moves, func(i, j int) bool { return moves[i].id < moves[j].id })

	for _, mv := range moves {
		alive := rt.aliveNames()
		if len(alive) == 0 {
			if !b.stranded {
				rt.log.Warn("no live backend to reroute jobs", "backend", dead, "jobs", len(moves))
			}
			b.stranded = true
			return
		}
		b.stranded = false
		key, err := service.SpecKey(mv.spec)
		if err != nil {
			continue // cannot happen: the spec was admitted once already
		}
		target := rendezvous(key, alive)
		v, _, err := rt.postSpec(context.Background(), target, mv.spec, mv.traceparent)
		if err != nil {
			rt.log.Warn("reroute failed", "job_id", mv.id, "target", target, "err", err)
			continue
		}
		rt.mu.Lock()
		rt.apply(mv.id, evMove, dead, jobRoute{backend: target, backendID: v.ID, state: v.State})
		rt.mu.Unlock()
	}
}

// postSpec submits a spec to one backend, forwarding the (already
// router-stamped) traceparent when one is set, and returns the view with the
// backend's own status (200 cache hit, 202 accepted).
func (rt *Router) postSpec(ctx context.Context, name string, spec api.Spec, traceparent string) (api.View, int, error) {
	var hdr map[string]string
	if traceparent != "" {
		hdr = map[string]string{api.TraceParentHeader: traceparent}
	}
	var v api.View
	resp, err := rt.backends[name].client.Open(ctx, http.MethodPost, "/v1/jobs", hdr, spec)
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
	}
	if err != nil {
		rt.markFailure(ctx, name, err)
		return api.View{}, 0, err
	}
	return v, resp.StatusCode, nil
}

// submit routes POST /v1/jobs by the spec's content cache key.
func (rt *Router) submit(w http.ResponseWriter, r *http.Request) {
	proxy0 := time.Now()
	var spec api.Spec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, api.MaxSpecBytes)).Decode(&spec); err != nil {
		api.WriteError(w, api.CodeBadRequest, "bad spec: %v", err)
		return
	}
	key, err := service.SpecKey(spec)
	if err != nil {
		api.WriteError(w, api.CodeInvalidSpec, "%v", err)
		return
	}
	// Trace context: inherit the caller's traceparent (or mint a fresh trace
	// for header-less callers) and interpose the router's proxy span, so the
	// backend's job span parents under the router hop rather than directly
	// under the client.
	traceID, clientSpan, perr := api.ParseTraceParent(r.Header.Get(api.TraceParentHeader))
	if perr != nil {
		traceID, clientSpan = api.NewTraceID(), ""
	}
	routerSpan := api.NewSpanID()
	traceparent := api.FormatTraceParent(traceID, routerSpan)
	// A transport-dead target is retired and the next-highest backend takes
	// the key; application errors (saturation, quota) relay verbatim — the
	// owning backend said no, and bouncing the job elsewhere would shatter
	// cache affinity.
	for attempt := 0; attempt < len(rt.names)+1; attempt++ {
		alive := rt.aliveNames()
		if len(alive) == 0 {
			api.WriteError(w, api.CodeUnavailable, "no live backend")
			return
		}
		target := rendezvous(key, alive)
		v, status, err := rt.postSpec(r.Context(), target, spec, traceparent)
		if err != nil {
			var verdict *api.Error
			if errors.As(err, &verdict) {
				relayErr(w, verdict)
				return
			}
			continue // transport failure: target was marked, re-pick
		}
		rt.record(v.ID, evSubmit, jobRoute{
			backend: target, backendID: v.ID, spec: spec, state: v.State,
			traceID: traceID, clientSpan: clientSpan, routerSpan: routerSpan,
			proxyStart: proxy0, proxyDur: time.Since(proxy0),
		})
		rt.log.Info("job routed",
			"job_id", v.ID, "backend", target, "trace_id", traceID,
			"cache_hit", v.CacheHit, "state", string(v.State))
		api.WriteJSON(w, status, v)
		return
	}
	api.WriteError(w, api.CodeUnavailable, "no backend accepted the job")
}

// resolve finds the route for a public job ID, probing live backends for
// jobs the router has never seen (submitted before a router restart, or
// directly to a backend). Probes run concurrently with their own short
// deadline so one hung backend cannot stall every unknown-ID lookup for
// the full client timeout, and a probe cancelled because a sibling already
// found the job never counts against anyone's health.
// It returns a value snapshot: the live record is mutated under rt.mu by
// failover and state refreshes, so handlers must not hold a pointer into it.
func (rt *Router) resolve(ctx context.Context, id string) (jobRoute, bool) {
	rt.mu.Lock()
	route, ok := rt.jobs[id]
	var snap jobRoute
	if ok {
		snap = *route
	}
	rt.mu.Unlock()
	if ok {
		return snap, true
	}
	probeCtx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	type hit struct {
		name string
		view api.View
	}
	for h := range fanOut(probeCtx, rt, func(b *backendState) (hit, error) {
		v, err := b.client.Get(probeCtx, id)
		return hit{b.Name, v}, err
	}) {
		if h.view.ID != id {
			continue
		}
		route := jobRoute{backend: h.name, backendID: id, spec: h.view.Spec, state: h.view.State}
		return rt.record(id, evDiscover, route), true
	}
	return jobRoute{}, false
}

// fanOut calls fn on every live backend concurrently and delivers the
// successful results on the returned channel, which closes once every
// backend has answered. A failed call is dropped, after counting against
// the backend's health when it was a transport failure.
func fanOut[T any](ctx context.Context, rt *Router, fn func(*backendState) (T, error)) <-chan T {
	alive := rt.aliveNames()
	out := make(chan T, len(alive)) // one slot per call: a reader that returns early strands nobody
	var wg sync.WaitGroup
	for _, name := range alive {
		wg.Add(1)
		go func(b *backendState) {
			defer wg.Done()
			v, err := fn(b)
			if err != nil {
				rt.markFailure(ctx, b.Name, err)
				return
			}
			out <- v
		}(rt.backends[name])
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// locate resolves a public job ID to its route and the live backend holding
// it. The route table moves under failover, so every use re-resolves.
func (rt *Router) locate(ctx context.Context, id string) (jobRoute, *backendState, error) {
	route, ok := rt.resolve(ctx, id)
	if !ok {
		return route, nil, errNoRoute
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if b := rt.backends[route.backend]; b != nil && b.alive {
		return route, b, nil
	}
	return route, nil, errBackendDown
}

// view reads a job's current view through the route table, under its public
// identity and with the observed state folded in; a transport failure
// counts against the backend.
func (rt *Router) view(ctx context.Context, id string) (api.View, jobRoute, error) {
	route, b, err := rt.locate(ctx, id)
	if err != nil {
		return api.View{}, route, err
	}
	v, err := b.client.Get(ctx, route.backendID)
	rt.markFailure(ctx, route.backend, err)
	if err == nil {
		rt.observe(id, v.ID, v.State)
		v.ID = id
	}
	return v, route, err
}

// get proxies GET /v1/jobs/{id}.
func (rt *Router) get(w http.ResponseWriter, r *http.Request) {
	v, route, err := rt.view(r.Context(), r.PathValue("id"))
	if err != nil {
		fail(w, r, route.backend, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, v)
}

// trace proxies GET /v1/jobs/{id}/trace from the owning backend, rewrites
// the backend's job ID back to the public one, and appends the router's own
// proxy span — the returned tree then covers the full path client → router
// → daemon → compute plane under one trace ID. Routes the router never
// submitted (discovered by probing) relay the backend's trace untouched.
func (rt *Router) trace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	route, b, err := rt.locate(r.Context(), id)
	var t api.Trace
	if err == nil {
		t, err = b.client.Trace(r.Context(), route.backendID)
		rt.markFailure(r.Context(), route.backend, err)
	}
	if err != nil {
		fail(w, r, route.backend, err)
		return
	}
	t.Job = id // public identity survives failover
	if route.routerSpan != "" && t.TraceID == route.traceID {
		t.Spans = append(t.Spans, api.Span{
			TraceID:      route.traceID,
			SpanID:       route.routerSpan,
			ParentSpanID: route.clientSpan,
			Name:         "router.proxy",
			Service:      "router",
			Start:        route.proxyStart.UTC().Format(time.RFC3339Nano),
			DurationSec:  route.proxyDur.Seconds(),
			Attrs:        map[string]string{"backend": route.backend, "job_id": id},
		})
	}
	api.WriteJSON(w, http.StatusOK, t)
}

// remove proxies DELETE /v1/jobs/{id}: it forgets the route once the record
// is gone (204), and relays a cancellation (202) under the public ID — the
// backend's acknowledgement names the job by the ID it was reissued under.
func (rt *Router) remove(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	route, b, err := rt.locate(r.Context(), id)
	var resp *http.Response
	if err == nil {
		resp, err = b.client.Open(r.Context(), http.MethodDelete, "/v1/jobs/"+route.backendID, nil, nil)
		rt.markFailure(r.Context(), route.backend, err)
	}
	if err != nil {
		fail(w, r, route.backend, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		rt.mu.Lock()
		rt.apply(id, evRemove, "", jobRoute{})
		rt.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	var ack map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		fail(w, r, route.backend, err)
		return
	}
	rt.observe(id, ack["id"], api.StateCancelled)
	ack["id"] = id
	api.WriteJSON(w, resp.StatusCode, ack)
}

// proxySlice serves GET /v1/jobs/{id}/slice/{z}, a one-shot body, off the
// job's backend through its stream client, copying the headers a client
// reads and flushing as the body arrives. A refusal relays verbatim, and a
// transport failure counts against the backend as on every other backend
// call. The long-lived streams — /events and /stream — do not come through
// here: they are relayed (relay.go) so subscribers survive a backend death
// mid-stream.
func (rt *Router) proxySlice(w http.ResponseWriter, r *http.Request) {
	resp, backend, err := rt.dialJob(r.Context(), r.PathValue("id"), "/slice/"+r.PathValue("z"), nil)
	if err != nil {
		fail(w, r, backend, err)
		return
	}
	defer resp.Body.Close()
	for _, k := range []string{"Content-Type", "Content-Length"} {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	rc := http.NewResponseController(w)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil || rc.Flush() != nil {
				return // the client went away
			}
		}
		if err != nil {
			if err != io.EOF {
				rt.markFailure(r.Context(), backend, err)
			}
			return
		}
	}
}

// refreshState re-reads a job's state from its backend and folds it into
// the route table (the failover predicate).
func (rt *Router) refreshState(id string) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_, _, _ = rt.view(ctx, id)
}

// list fans GET /v1/jobs out to all live backends and merges the views in
// submission-time order.
func (rt *Router) list(w http.ResponseWriter, r *http.Request) {
	var merged []api.View
	for vs := range fanOut(r.Context(), rt, func(b *backendState) ([]api.View, error) {
		return b.client.List(r.Context())
	}) {
		merged = append(merged, vs...)
	}
	// Failed-over jobs keep their public identity in the fleet listing
	// (the backends know them by their reissued IDs), and every listed
	// view refreshes the router's observed state for its route.
	rt.mu.Lock()
	alias := map[string]string{}
	for id, route := range rt.jobs {
		if route.backendID != id {
			alias[route.backendID] = id
		}
	}
	rt.mu.Unlock()
	for i := range merged {
		pub, aliased := alias[merged[i].ID]
		if !aliased {
			pub = merged[i].ID
		}
		rt.observe(pub, merged[i].ID, merged[i].State)
		merged[i].ID = pub
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Submitted != merged[j].Submitted {
			return merged[i].Submitted < merged[j].Submitted
		}
		return merged[i].ID < merged[j].ID
	})
	if merged == nil {
		merged = []api.View{}
	}
	api.WriteJSON(w, http.StatusOK, merged)
}

// metrics fans /v1/metrics in from all live backends as one fleet
// aggregate: counters and gauges sum, uptime is the fleet maximum,
// cost_scale averages, and wait percentiles take the per-class worst (a
// conservative merge — exact percentiles do not compose).
func (rt *Router) metrics(w http.ResponseWriter, r *http.Request) {
	type scrape struct {
		name string
		m    api.Metrics
		dur  time.Duration
	}
	agg := api.Metrics{Jobs: map[string]int{}, WaitSec: map[string]api.WaitStats{}}
	n := 0
	for res := range fanOut(r.Context(), rt, func(b *backendState) (scrape, error) {
		t0 := time.Now()
		m, err := b.client.Metrics(r.Context())
		return scrape{b.Name, m, time.Since(t0)}, err
	}) {
		rt.met.scrapeSeconds.With(res.name).Observe(res.dur.Seconds())
		rt.mu.Lock()
		if b := rt.backends[res.name]; b != nil {
			b.scrapeLatency = res.dur
		}
		rt.mu.Unlock()
		m := res.m
		n++
		if m.UptimeSec > agg.UptimeSec {
			agg.UptimeSec = m.UptimeSec
		}
		agg.Workers += m.Workers
		agg.BusyWorkers += m.BusyWorkers
		agg.QueueDepth += m.QueueDepth
		agg.QueueCap += m.QueueCap
		agg.QueueCostSec += m.QueueCostSec
		agg.MaxQueuedSec += m.MaxQueuedSec
		agg.InflightBytes += m.InflightBytes
		agg.MaxInflight += m.MaxInflight
		agg.PoolBytes += m.PoolBytes
		agg.CostScale += m.CostScale
		agg.Completed += m.Completed
		agg.CacheHits += m.CacheHits
		agg.Failed += m.Failed
		agg.Cancelled += m.Cancelled
		agg.Admission.Admitted += m.Admission.Admitted
		agg.Admission.RejectedFull += m.Admission.RejectedFull
		agg.Admission.RejectedCost += m.Admission.RejectedCost
		agg.Admission.RejectedBytes += m.Admission.RejectedBytes
		agg.Admission.RejectedQuota += m.Admission.RejectedQuota
		agg.Cache.Hits += m.Cache.Hits
		agg.Cache.Misses += m.Cache.Misses
		agg.Cache.Entries += m.Cache.Entries
		agg.Cache.Bytes += m.Cache.Bytes
		agg.Cache.MaxBytes += m.Cache.MaxBytes
		agg.PFSReadMB += m.PFSReadMB
		agg.PFSWriteMB += m.PFSWriteMB
		agg.PFSObjects += m.PFSObjects
		agg.PFSHeldMB += m.PFSHeldMB
		agg.EventDrops += m.EventDrops
		for k, v := range m.Jobs {
			agg.Jobs[k] += v
		}
		for class, ws := range m.WaitSec {
			cur := agg.WaitSec[class]
			cur.Count += ws.Count
			if ws.P50 > cur.P50 {
				cur.P50 = ws.P50
			}
			if ws.P90 > cur.P90 {
				cur.P90 = ws.P90
			}
			if ws.P99 > cur.P99 {
				cur.P99 = ws.P99
			}
			agg.WaitSec[class] = cur
		}
	}
	if n > 0 {
		agg.CostScale /= float64(n)
	}
	if agg.UptimeSec > 0 {
		agg.JobsPerSec = float64(agg.Completed) / agg.UptimeSec
	}
	// Per-backend health rides along: scrape latency above was just
	// refreshed, so the Backends view reflects this very fan-in.
	agg.Backends = rt.backendHealth()
	api.WriteJSON(w, http.StatusOK, agg)
}
