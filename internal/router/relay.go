package router

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"ifdk/pkg/api"
)

// The long-lived streaming endpoints — SSE /events and multipart /stream —
// are not reverse-proxied: the router terminates them and re-emits every
// frame itself. A raw proxy ties the client's connection to one backend's
// lifetime, so a backend death mid-stream surfaces as a dropped connection
// and, on reconnect, "unavailable" until the client gives up. The relay
// instead holds the client connection open across the death: it notices the
// backend stream break, waits for the health loop to fail the job over to a
// survivor (failover resubmits it under a fresh backend ID), reattaches to
// the survivor's stream, and keeps forwarding — deduplicating what the
// re-execution replays.
//
// Deduplication leans on determinism. A re-executed job publishes the same
// event sequence its first execution did (same Spec → same rounds, same
// slices, same publish count), so the SSE relay forwards only events whose
// Seq exceeds the highest already delivered and the client sees one gapless,
// strictly-increasing stream with no restart. Slice parts are bit-identical
// across executions, so the multipart relay forwards each z exactly once,
// whichever execution produced it.

// relayPoll is the reattach probe period while a takeover is in flight.
const relayPoll = 25 * time.Millisecond

var (
	errNoRoute     = errors.New("router: job unknown in the fleet")
	errBackendDown = errors.New("router: job's backend is down")
)

// dialJob opens a streaming GET against the job's *current* backend. A
// refusal comes back as the backend's *api.Error; transport failures count
// against the backend's health.
func (rt *Router) dialJob(ctx context.Context, id, sub string, hdr map[string]string) (*http.Response, string, error) {
	route, b, err := rt.locate(ctx, id)
	if err != nil {
		return nil, route.backend, err
	}
	resp, err := b.stream.Open(ctx, http.MethodGet, "/v1/jobs/"+route.backendID+sub, hdr, nil)
	rt.markFailure(ctx, route.backend, err)
	return resp, route.backend, err
}

// redial decides what a relay does after a failed dial. It reports true when
// the relay is over — the backend's own verdict (not_found, terminal, bad
// request) relayed verbatim, the client settled from the job's view, or the
// failover wait exhausted; the response, where one was still possible, has
// been written — and otherwise returns false after one reattach poll period.
func (rt *Router) redial(w http.ResponseWriter, r *http.Request, err error, headersSent bool, deadline time.Time, settle func() bool) bool {
	id := r.PathValue("id")
	var verdict *api.Error
	if errors.As(err, &verdict) && !headersSent {
		relayErr(w, verdict)
		return true
	}
	if settle() {
		return true
	}
	if errors.Is(err, errNoRoute) && !headersSent {
		writeErr(w, api.CodeNotFound, "no such job %q in the fleet", id)
		return true
	}
	if time.Now().After(deadline) {
		if !headersSent {
			writeErr(w, api.CodeUnavailable, "job %s: no live backend within the failover wait", id)
		}
		return true
	}
	select {
	case <-time.After(relayPoll):
		return false
	case <-r.Context().Done():
		return true
	}
}

// terminalEventType maps a terminal state to its stream-ending event type.
func terminalEventType(st api.State) api.EventType {
	switch st {
	case api.StateFailed:
		return api.EventFailed
	case api.StateCancelled:
		return api.EventCancelled
	default:
		return api.EventDone
	}
}

// relayEvents serves GET /v1/jobs/{id}/events by relaying the owning
// backend's SSE stream frame by frame. The cursor (seeded from the client's
// Last-Event-ID / ?after=) is the single source of truth for what the client
// has seen: only frames beyond it are forwarded, and after a takeover it is
// passed to the survivor as ?after= so the deterministic re-execution's
// already-delivered prefix is filtered at the source. If the takeover target
// settled below the cursor (the survivor served the resubmission from its
// result cache, whose terminal event predates what the client saw), the
// relay synthesizes the closing frame at cursor+1 from the job's view.
func (rt *Router) relayEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cursor, err := api.ResumeCursor(r)
	if err != nil {
		writeErr(w, api.CodeBadRequest, "%v", err)
		return
	}

	// A relay that ends without delivering a terminal frame (client gave up
	// mid-run) leaves the route's observed state stale — refresh it so the
	// failover predicate and the terminal TTL stay truthful.
	terminalSeen := false
	defer func() {
		if !terminalSeen {
			go rt.refreshState(id)
		}
	}()

	rc := http.NewResponseController(w)
	headersSent := false
	sendHeaders := func() error {
		if headersSent {
			return nil
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("X-Accel-Buffering", "no")
		w.WriteHeader(http.StatusOK)
		headersSent = true
		return rc.Flush()
	}
	emit := func(e api.Event) error {
		if err := api.WriteEvent(w, e); err != nil {
			return err
		}
		return rc.Flush()
	}
	// settle is the tie-breaker when the stream cannot deliver a terminal
	// frame: if the fleet already knows the outcome, close out from the view.
	settle := func() bool {
		v, _, err := rt.view(r.Context(), id)
		if err != nil || !v.State.Terminal() {
			return false
		}
		terminalSeen = true
		if sendHeaders() != nil {
			return true
		}
		_ = emit(api.Event{
			Seq: cursor + 1, Job: id, Type: terminalEventType(v.State),
			Time:  time.Now().UTC().Format(time.RFC3339Nano),
			State: v.State, Error: v.Error,
		})
		return true
	}

	deadline := time.Now().Add(rt.opt.FailoverWait)
	attached := false
	for {
		if r.Context().Err() != nil {
			return
		}
		resp, backend, err := rt.dialJob(r.Context(), id, "/events?after="+strconv.FormatInt(cursor, 10),
			map[string]string{"Accept": "text/event-stream"})
		if err != nil {
			if rt.redial(w, r, err, headersSent, deadline, settle) {
				return
			}
			continue
		}
		if attached {
			rt.relayTakeovers.Add(1)
		}
		attached = true
		if sendHeaders() != nil {
			resp.Body.Close()
			return
		}
		deadline = time.Now().Add(rt.opt.FailoverWait)
		terminal, pumpErr := rt.pumpEvents(resp.Body, id, &cursor, emit)
		resp.Body.Close()
		if terminal != "" {
			terminalSeen = true
			return
		}
		if r.Context().Err() != nil {
			return // the client went away, not the backend
		}
		rt.markFailure(r.Context(), backend, pumpErr)
		// The backend stream ended without a terminal frame: the backend died
		// mid-stream, or the takeover settled below the cursor. Try the view,
		// then loop to reattach.
		if settle() {
			return
		}
	}
}

// pumpEvents copies one backend SSE connection to the client, rewriting each
// event's job ID to the public one and dropping frames at or below the
// cursor (replay overlap, or a re-execution's already-delivered prefix).
// It returns the terminal state once a terminal frame has been forwarded.
func (rt *Router) pumpEvents(body io.Reader, id string, cursor *int64, emit func(api.Event) error) (api.State, error) {
	for e, err := range api.ReadEvents(body) {
		if err != nil {
			return "", err
		}
		if e.Seq <= *cursor {
			continue
		}
		rt.adopt(id, &e.Job, e.State)
		if err := emit(e); err != nil {
			return "", err
		}
		*cursor = e.Seq
		if e.Type.Terminal() {
			return e.State, nil
		}
	}
	return "", nil
}

// relayStream serves GET /v1/jobs/{id}/stream by re-terminating the owning
// backend's multipart slice stream under the router's own boundary. Each
// slice part is forwarded at most once, keyed by its z-index header — after
// a takeover the survivor's stream replays every slice it has (PFS replay
// plus the re-execution's live tail), and the bit-identical duplicates are
// dropped here so the client's exactly-once accounting holds. Parts are
// forwarded whole (read fully before the first byte is re-emitted): a
// backend dying mid-part must not leak a truncated payload into the client's
// stream. The closing JSON part carries the public job ID whichever
// execution finished the job.
func (rt *Router) relayStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	hdr := map[string]string{}
	// The client's content-coding choice passes through untouched: slice
	// parts are forwarded byte-for-byte, so whatever per-part encoding the
	// backend negotiates is exactly what the client asked for.
	if ae := r.Header.Get("Accept-Encoding"); ae != "" {
		hdr["Accept-Encoding"] = ae
	}

	terminalSeen := false
	defer func() {
		if !terminalSeen {
			go rt.refreshState(id)
		}
	}()

	rc := http.NewResponseController(w)
	var sw api.SliceWriter
	headersSent := false
	seen := map[[2]int]bool{}
	// end closes the client's stream with the job's terminal view, under the
	// public job ID whichever execution finished the job.
	end := func(v api.View) error {
		terminalSeen = true
		rt.adopt(id, &v.ID, v.State)
		if err := sw.WriteEnd(v); err != nil {
			return err
		}
		_ = sw.Close()
		return rc.Flush()
	}
	// A refusal mid-relay (e.g. the re-execution was cancelled on the
	// survivor: terminal, no slices) settles with the view.
	settle := func() bool {
		if !headersSent {
			return false
		}
		v, _, err := rt.view(r.Context(), id)
		if err != nil || !v.State.Terminal() {
			return false
		}
		_ = end(v)
		return true
	}

	deadline := time.Now().Add(rt.opt.FailoverWait)
	attached := false
	for {
		if r.Context().Err() != nil {
			return
		}
		resp, backend, err := rt.dialJob(r.Context(), id, "/stream", hdr)
		if err != nil {
			if rt.redial(w, r, err, headersSent, deadline, settle) {
				return
			}
			continue
		}
		if attached {
			rt.relayTakeovers.Add(1)
		}
		attached = true
		if !headersSent {
			sw = api.NewSliceWriter(w)
			w.Header().Set("Content-Type", sw.ContentType())
			w.Header().Set("X-Accel-Buffering", "no")
			w.WriteHeader(http.StatusOK)
			headersSent = true
			if rc.Flush() != nil {
				resp.Body.Close()
				return
			}
		}
		deadline = time.Now().Add(rt.opt.FailoverWait)
		done, pumpErr := pumpStream(resp, seen, sw, rc, end)
		resp.Body.Close()
		if done {
			terminalSeen = true
			return
		}
		if r.Context().Err() != nil {
			return
		}
		rt.markFailure(r.Context(), backend, pumpErr)
		// Backend died mid-stream: loop to reattach after the failover.
	}
}

// pumpStream copies one backend multipart connection into the relay's
// writer, skipping slices already forwarded. It reports done once the
// closing part has been relayed or the client stopped taking writes. The
// dedup key includes the part's preview factor: a progressive stream carries
// a coarse slice z and a full-resolution slice z as distinct parts, and
// keying on the bare index would silently drop the refinement.
func pumpStream(resp *http.Response, seen map[[2]int]bool, sw api.SliceWriter, rc *http.ResponseController, end func(api.View) error) (bool, error) {
	for p, err := range api.ReadSlices(resp.Header.Get("Content-Type"), resp.Body) {
		if err != nil {
			return false, err // cut mid-stream: the backend died, nothing partial was forwarded; the caller reattaches
		}
		if p.End != nil {
			return true, end(*p.End)
		}
		key := [2]int{p.Factor, p.Z}
		if seen[key] {
			continue // replayed duplicate after a takeover
		}
		if err := sw.WriteSlice(p); err != nil {
			return true, err
		}
		seen[key] = true
		if err := rc.Flush(); err != nil {
			return true, err
		}
	}
	return false, nil
}
