package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ifdk/pkg/api"
)

// Watch follows a job's lifecycle over SSE, invoking fn for every event in
// sequence order, and returns the job's terminal state once its stream
// ends. A dropped connection is survived transparently: Watch reconnects
// with the standard Last-Event-ID header carrying the highest sequence
// number already delivered, so fn sees every event exactly once, in order,
// with no duplicates across reconnects (the server's per-job log replays
// only Seq > Last-Event-ID).
//
// Watch returns when the terminal event has been delivered, when fn returns
// a non-nil error (propagated verbatim), when ctx ends, or when the server
// rejects the watch outright (*api.Error — e.g. not_found after the job was
// deleted). fn may be nil to just await termination event-driven.
func (c *Client) Watch(ctx context.Context, id string, fn func(api.Event) error) (api.State, error) {
	var lastSeq int64
	var terminal api.State
	attempt := 0
	for {
		state, seq, err := c.watchOnce(ctx, id, lastSeq, fn)
		if seq > lastSeq {
			// The connection delivered events before dropping: this is a
			// fresh outage, not a continuation of the last one. Without the
			// reset, a long watch over a flaky path (or a fleet failover per
			// reconnect) exhausts the retry budget cumulatively even though
			// every individual drop recovered fine.
			attempt = 0
		}
		lastSeq = seq
		if err == nil {
			terminal = state
			return terminal, nil
		}
		if ctx.Err() != nil {
			return "", ctx.Err()
		}
		if apiErr, ok := asAPIError(err); ok && !apiErr.Retryable() {
			return "", err
		}
		var fnErr *callbackError
		if errors.As(err, &fnErr) {
			return "", fnErr.err
		}
		// Transport drop or retryable server condition: back off and resume.
		attempt++
		if attempt >= c.retry.Max {
			return "", fmt.Errorf("client: watch %s: %d reconnects exhausted: %w", id, attempt, err)
		}
		wait := c.backoff(attempt, 0)
		if c.retry.OnRetry != nil {
			c.retry.OnRetry("watch_reconnect", attempt, wait)
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

// callbackError marks an error produced by the caller's fn, which must
// abort the watch without retrying.
type callbackError struct{ err error }

func (e *callbackError) Error() string { return e.err.Error() }

// watchOnce holds one SSE connection, resuming after lastSeq, and returns
// the terminal state if the stream completed, or the highest delivered seq
// plus the reason it ended early.
func (c *Client) watchOnce(ctx context.Context, id string, lastSeq int64, fn func(api.Event) error) (api.State, int64, error) {
	hdr := map[string]string{"Accept": "text/event-stream", "Cache-Control": "no-cache"}
	if lastSeq > 0 {
		hdr["Last-Event-ID"] = strconv.FormatInt(lastSeq, 10)
	}
	resp, err := c.Open(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", hdr, nil)
	if err != nil {
		return "", lastSeq, err
	}
	defer resp.Body.Close()

	for e, err := range api.ReadEvents(resp.Body) {
		if err != nil {
			return "", lastSeq, fmt.Errorf("client: %w", err)
		}
		if e.Seq <= lastSeq {
			continue // replay overlap after a reconnect; already delivered
		}
		lastSeq = e.Seq
		if fn != nil {
			if err := fn(e); err != nil {
				return "", lastSeq, &callbackError{err: err}
			}
		}
		if e.Type.Terminal() {
			return e.State, lastSeq, nil
		}
	}
	// EOF without a terminal event: the connection was dropped mid-stream.
	return "", lastSeq, fmt.Errorf("client: event stream for %s ended without a terminal event", id)
}
