package router

import (
	"context"
	"errors"
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

// endpoint is what differs between the two relayed streams.
type endpoint struct {
	path   func() string                      // dialled under the job, afresh on every attach
	req    map[string]string                  // request headers for the backend
	head   map[string]string                  // response headers, sent before the first frame
	pump   func(*http.Response) (bool, error) // forwards one backend connection; true once the stream is over
	finish func(api.View) error               // ends the stream from the job's terminal view
	// eager endpoints settle from the view before their headers are out and
	// after a pump that ended short; /stream does neither, because the
	// survivor's /stream replays the slices the client missed.
	eager bool
}

// relay serves one long-lived stream of the job in r's path across backend
// deaths: it forwards the stream of the job's current backend and, when
// that breaks off, waits for the failover and reattaches to the survivor.
func (rt *Router) relay(w http.ResponseWriter, r *http.Request, ep endpoint) {
	id := r.PathValue("id")
	// A relay that ends without delivering the stream's end (client gave up
	// mid-run) leaves the route's observed state stale — refresh it so the
	// failover predicate and the terminal TTL stay truthful.
	over := false
	defer func() {
		if !over {
			go rt.refreshState(id)
		}
	}()

	rc := http.NewResponseController(w)
	headersSent := false
	sendHeaders := func() error {
		if headersSent {
			return nil
		}
		for k, v := range ep.head {
			w.Header().Set(k, v)
		}
		w.WriteHeader(http.StatusOK)
		headersSent = true
		return rc.Flush()
	}
	// settle is the tie-breaker when the stream cannot deliver its end: if
	// the fleet already knows the outcome, close out from the view.
	settle := func() bool {
		if !headersSent && !ep.eager {
			return false
		}
		v, _, err := rt.view(r.Context(), id)
		if err != nil || !v.State.Terminal() {
			return false
		}
		over = true
		if sendHeaders() == nil {
			_ = ep.finish(v)
		}
		return true
	}

	deadline := time.Now().Add(rt.opt.FailoverWait)
	attached := false
	for r.Context().Err() == nil {
		resp, backend, err := rt.dialJob(r.Context(), id, ep.path(), ep.req)
		// A failed dial: before the first byte, the backend's verdict
		// (not_found, terminal, bad request) or the fleet's not-found is
		// final; otherwise settle from the view, or poll for the takeover
		// until the failover wait runs out.
		var verdict *api.Error
		switch {
		case err == nil:
		case !headersSent && (errors.As(err, &verdict) || errors.Is(err, errNoRoute)):
			fail(w, r, backend, err)
			return
		case settle():
			return
		case time.Now().After(deadline):
			if !headersSent {
				api.WriteError(w, api.CodeUnavailable, "job %s: no live backend within the failover wait", id)
			}
			return
		default:
			select {
			case <-time.After(relayPoll):
				continue
			case <-r.Context().Done():
				return
			}
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
		done, err := ep.pump(resp)
		resp.Body.Close()
		if done {
			over = true
			return
		}
		if r.Context().Err() != nil {
			return // the client went away, not the backend
		}
		rt.markFailure(r.Context(), backend, err)
		// The backend stream ended short: the backend died mid-stream, or the
		// takeover settled below the events cursor. Try the view, then loop
		// to reattach.
		if ep.eager && settle() {
			return
		}
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
		api.WriteError(w, api.CodeBadRequest, "%v", err)
		return
	}
	rc := http.NewResponseController(w)
	emit := func(e api.Event) error {
		if err := api.WriteEvent(w, e); err != nil {
			return err
		}
		return rc.Flush()
	}
	rt.relay(w, r, endpoint{
		path: func() string { return "/events?after=" + strconv.FormatInt(cursor, 10) },
		req:  map[string]string{"Accept": "text/event-stream"},
		head: map[string]string{"Content-Type": "text/event-stream", "Cache-Control": "no-cache", "X-Accel-Buffering": "no"},
		// Each event's job ID becomes the public one, and frames at or below
		// the cursor (replay overlap, or a re-execution's already-delivered
		// prefix) are dropped; a terminal frame ends the stream.
		pump: func(resp *http.Response) (bool, error) {
			for e, err := range api.ReadEvents(resp.Body) {
				if err != nil {
					return false, err
				}
				if e.Seq <= cursor {
					continue
				}
				rt.observe(id, e.Job, e.State)
				e.Job = id
				if err := emit(e); err != nil {
					return false, err
				}
				cursor = e.Seq
				if e.Type.Terminal() {
					return true, nil
				}
			}
			return false, nil
		},
		finish: func(v api.View) error {
			return emit(api.Event{
				Seq: cursor + 1, Job: id, Type: terminalEventType(v.State),
				Time:  time.Now().UTC().Format(time.RFC3339Nano),
				State: v.State, Error: v.Error,
			})
		},
		eager: true,
	})
}

// relayStream serves GET /v1/jobs/{id}/stream by re-terminating the owning
// backend's multipart slice stream under the router's own boundary. Each
// slice part is forwarded at most once, keyed by its z-index header — after
// a takeover the survivor's stream replays every slice it has (the slices
// already handed over plus the re-execution's live tail), and the bit-identical duplicates are
// dropped here so the client's exactly-once accounting holds. Parts are
// forwarded whole (read fully before the first byte is re-emitted): a
// backend dying mid-part must not leak a truncated payload into the client's
// stream. The closing JSON part carries the public job ID whichever
// execution finished the job.
func (rt *Router) relayStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rc := http.NewResponseController(w)
	sw := api.NewSliceWriter(w)
	seen := map[[2]int]bool{}
	end := func(v api.View) error {
		rt.observe(id, v.ID, v.State)
		v.ID = id
		if err := sw.WriteEnd(v); err != nil {
			return err
		}
		_ = sw.Close()
		return rc.Flush()
	}
	rt.relay(w, r, endpoint{
		path: func() string { return "/stream" },
		head: map[string]string{"Content-Type": sw.ContentType(), "X-Accel-Buffering": "no"},
		// The stream is over once the closing part is out or the client
		// stopped taking writes. The dedup key includes the part's preview
		// factor: a progressive stream carries a coarse slice z and a
		// full-resolution slice z as distinct parts, and keying on the bare
		// index would silently drop the refinement.
		pump: func(resp *http.Response) (bool, error) {
			for p, err := range api.ReadSlices(resp.Header.Get("Content-Type"), resp.Body) {
				if err != nil {
					return false, err // cut mid-part: nothing partial was forwarded
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
		},
		finish: end,
	})
}
