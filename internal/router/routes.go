package router

import (
	"time"

	"ifdk/pkg/api"
)

// The route lifecycle. A public job ID's route changes in exactly one
// place, Router.apply, which looks the event up in routeTable and runs the
// effects it returns. An event that reports a job state lands the route in
// that state's phase; remove, expire and evict drop it. A pair the table
// does not list is refused and changes nothing.

// phase is where a route is in its lifecycle.
type phase uint8

const (
	absent   phase = iota // the table holds no route for the ID
	live                  // last seen queued or running: failover moves it off a dead backend
	terminal              // last seen done, failed or cancelled: the TTL forgets it
	numPhases
)

// phaseOf is the phase a reported job state puts a route in.
func phaseOf(st api.State) phase {
	switch {
	case st == "":
		return absent
	case st.Terminal():
		return terminal
	}
	return live
}

// event is one input to a route's lifecycle.
type event uint8

const (
	evSubmit   event = iota // POST /v1/jobs placed the job
	evDiscover              // resolve's probe found a job the table did not hold
	evObserve               // a view, event, list entry or cancel ack reported the job's state
	evMove                  // failover resubmitted the job to a survivor
	evRemove                // DELETE answered 204: the backend forgot the job
	evExpire                // the terminal TTL elapsed
	evEvict                 // the table is over its bound
	numEvents
)

// effects is what a transition needs and does besides writing the route,
// as data. The table sets the guard, counters and log line; transition
// derives stamp and clear from the phases.
type effects struct {
	placed  bool   // guard: applies only while the route still names the placement the event came from
	stamp   bool   // start the TTL clock (terminalAt)
	clear   bool   // stop it
	reroute bool   // count a reroute, and a running one for a job last seen running
	expire  bool   // count an expired route
	log     string // info log line ("" = none)
}

type edge struct {
	from phase
	ev   event
}

// routeTable lists the legal moves. A submission replaces whatever the
// table holds: a probe can discover the job before its submission records
// it, and only the submission's route carries the router's trace hop.
var routeTable = map[edge]effects{
	{absent, evSubmit}:    {},
	{live, evSubmit}:      {},
	{terminal, evSubmit}:  {},
	{absent, evDiscover}:  {},
	{live, evObserve}:     {placed: true},
	{terminal, evObserve}: {placed: true},
	{live, evMove}:        {placed: true, reroute: true, log: "rerouted job"},
	{live, evRemove}:      {},
	{terminal, evRemove}:  {},
	{terminal, evExpire}:  {expire: true},
	{live, evEvict}:       {},
	{terminal, evEvict}:   {},
}

// transition looks one event up in the table: from is the route's phase,
// st the job state the event reports ("" for remove, expire and evict) and
// placed whether the route still names the placement the event came from.
// It returns the phase the route lands in and the effects, or false for a
// transition the lifecycle refuses. The TTL clock runs exactly while a route
// is terminal, from when it turned terminal or a submission rebuilt it so.
func transition(from phase, ev event, st api.State, placed bool) (phase, effects, bool) {
	to := phaseOf(st)
	fx, ok := routeTable[edge{from, ev}]
	drops := ev == evRemove || ev == evExpire || ev == evEvict
	if !ok || fx.placed && !placed || drops != (to == absent) {
		return from, effects{}, false
	}
	fx.stamp = to == terminal && (from != terminal || ev == evSubmit)
	fx.clear = to == live
	return to, fx, true
}

// apply moves id's route on ev; it holds the only writes to rt.jobs and to
// a route's placement, state, terminalAt and seq. next is what the event
// reports: the whole route for submit and discover, the job state for the
// rest, and for a move the survivor's placement too. on is the placement a
// guarded event came from: the backend ID an observation names, the dead
// backend a move leaves. It reports whether the event applied. Callers hold
// rt.mu.
func (rt *Router) apply(id string, ev event, on string, next jobRoute) bool {
	cur := rt.jobs[id]
	from, placed := absent, false
	if cur != nil {
		from = phaseOf(cur.state)
		placed = ev == evObserve && cur.backendID == on || ev == evMove && cur.backend == on
	}
	to, fx, ok := transition(from, ev, next.state, placed)
	if !ok {
		return false
	}
	var was api.State
	switch {
	case to == absent:
		delete(rt.jobs, id)
	case ev == evSubmit || ev == evDiscover:
		rt.seq++
		next.seq = rt.seq
		cur = &next
		rt.jobs[id] = cur
	default:
		was = cur.state
		if ev == evMove {
			cur.backend, cur.backendID = next.backend, next.backendID
		}
		cur.state = next.state
	}
	if fx.stamp {
		cur.terminalAt = time.Now()
	}
	if fx.clear {
		cur.terminalAt = time.Time{}
	}
	if fx.reroute {
		rt.reroutes.Add(1)
		if was == api.StateRunning {
			rt.reroutesRunning.Add(1)
		}
	}
	if fx.expire {
		rt.routesExpired.Add(1)
	}
	if fx.log != "" {
		rt.log.Info(fx.log, "job_id", id, "backend", cur.backend, "backend_id", cur.backendID, "was", string(was))
	}
	return true
}

// observe folds a job state a backend reported under backendID into id's
// route.
func (rt *Router) observe(id, backendID string, st api.State) {
	rt.mu.Lock()
	rt.apply(id, evObserve, backendID, jobRoute{state: st})
	rt.mu.Unlock()
}

// record adds the route a submission or a probe found, prunes the table, and
// returns the route the table holds for id.
func (rt *Router) record(id string, ev event, route jobRoute) jobRoute {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.apply(id, ev, "", route)
	rt.pruneLocked()
	if cur := rt.jobs[id]; cur != nil {
		return *cur
	}
	return route
}

// pruneLocked keeps the table bounded: backends prune their own terminal
// records, so a router that never forgot would hold one route (with its
// Spec) per submission forever. Terminal routes expire TerminalTTL after
// the router first saw them terminal; beyond the bound the oldest terminal
// routes go first, and if the table is somehow all live, the oldest route
// goes regardless. A forgotten job stays reachable through resolve's
// backend probe for as long as its backend keeps the record. Callers hold
// rt.mu.
func (rt *Router) pruneLocked() {
	cutoff := time.Now().Add(-rt.opt.TerminalTTL)
	for id, route := range rt.jobs {
		if !route.terminalAt.IsZero() && route.terminalAt.Before(cutoff) {
			rt.apply(id, evExpire, "", jobRoute{})
		}
	}
	for len(rt.jobs) > rt.maxRoutes {
		var next string
		var first *jobRoute
		for id, route := range rt.jobs {
			if first == nil || evictsBefore(route, first) {
				next, first = id, route
			}
		}
		rt.apply(next, evEvict, "", jobRoute{})
	}
}

// evictsBefore orders eviction: terminal routes before live ones, and
// within each the oldest insertion first.
func evictsBefore(a, b *jobRoute) bool {
	if a.state.Terminal() != b.state.Terminal() {
		return a.state.Terminal()
	}
	return a.seq < b.seq
}
