// Package client is the Go SDK for the iFDK reconstruction service: a
// typed wrapper over the versioned pkg/api HTTP contract served by ifdkd
// (or transparently by an ifdk-router fronting a fleet of them — the SDK
// cannot tell the difference, which is the point).
//
//	c := client.New("http://localhost:8080")
//	v, err := c.Submit(ctx, api.Spec{Phantom: "shepplogan", NX: 64})
//	_, err = c.Watch(ctx, v.ID, func(e api.Event) error { ... })
//	res, err := c.Stream(ctx, v.ID, nil) // res.Volume is the full volume
//
// Submit retries transient saturation (queue_full, cost_budget,
// working_set, quota_exhausted — see api.Retryable) with jittered
// exponential backoff; Watch survives dropped SSE connections by resuming
// with Last-Event-ID; Stream reassembles the live multipart slice stream
// into a volume with exactly-once slice accounting. All failures carry
// *api.Error where the server sent one, so callers branch on stable codes
// with errors.As.
//
// Every Submit carries W3C trace context (a traceparent header with a fresh
// trace ID, or the caller's own via SubmitTraced); Trace returns the job's
// assembled span tree, router hop included.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ifdk/pkg/api"
)

// Retry shapes the SDK's handling of retryable api.Error codes: full-jitter
// exponential backoff, honouring any server Retry-After hint as a floor.
type Retry struct {
	Max     int           // max attempts including the first (0 → default 8, 1 → no retries)
	Base    time.Duration // first backoff step (0 → default 25ms)
	Cap     time.Duration // backoff ceiling (0 → default 2s)
	OnRetry func(code string, attempt int, wait time.Duration)
}

func (r Retry) withDefaults() Retry {
	if r.Max <= 0 {
		r.Max = 8
	}
	if r.Base <= 0 {
		r.Base = 25 * time.Millisecond
	}
	if r.Cap <= 0 {
		r.Cap = 2 * time.Second
	}
	return r
}

// Client talks to one service base URL. It is safe for concurrent use.
type Client struct {
	base  string
	http  *http.Client
	retry Retry

	mu  sync.Mutex
	rng *rand.Rand
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (the default has no timeout:
// Watch and Stream hold connections open for the life of a job; use
// per-call contexts for deadlines).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// WithRetry overrides the retry policy for Submit and friends.
func WithRetry(r Retry) Option { return func(c *Client) { c.retry = r } }

// idlePerHost is how many idle connections the shared transport keeps to
// each server. A client watching jobs holds /events and /stream reads
// beside its calls, which keeps more than http.DefaultTransport's 2 per host
// busy at once; with 2, a finished read's connection is closed and the next
// call dials again, about once per job.
const idlePerHost = 32

// transport is shared by every Client built without WithHTTPClient, so
// their idle connections live in one pool that no Client has to close.
var transport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = idlePerHost
	return t
}()

// New creates a client for the service at base (e.g. "http://host:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{Transport: transport},
		rng:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, o := range opts {
		o(c)
	}
	c.retry = c.retry.withDefaults()
	return c
}

// BaseURL returns the configured service base URL.
func (c *Client) BaseURL() string { return c.base }

// backoff returns the full-jitter wait before retry attempt (1-based),
// floored at the server's Retry-After hint when one was given.
func (c *Client) backoff(attempt int, hint float64) time.Duration {
	d := c.retry.Base << uint(attempt-1)
	if d > c.retry.Cap || d <= 0 {
		d = c.retry.Cap
	}
	c.mu.Lock()
	d = time.Duration(c.rng.Int63n(int64(d) + 1))
	c.mu.Unlock()
	if floor := time.Duration(hint * float64(time.Second)); floor > 0 && d < floor {
		d = floor
	}
	return d
}

// decodeError turns a non-2xx response into an *api.Error carrying its HTTP
// status, preferring the api.Error envelope and falling back to a
// synthesized one for non-JSON bodies (old servers, intermediaries). A
// Retry-After header stands in for an absent retry_after_sec.
func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	e := &api.Error{}
	if err := json.Unmarshal(body, e); err != nil || e.Code == "" {
		code, status := api.CodeInternal, resp.StatusCode
		if status == http.StatusBadGateway {
			status = http.StatusServiceUnavailable // an intermediary's word for the same thing
		}
		for _, c := range []string{api.CodeNotFound, api.CodeBadRequest, api.CodeTerminal, api.CodeQuotaExhausted, api.CodeUnavailable} {
			if api.HTTPStatus(c) == status {
				code = c
			}
		}
		e = &api.Error{Code: code, Message: fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))}
	}
	e.Status = resp.StatusCode
	if sec, err := strconv.ParseFloat(resp.Header.Get("Retry-After"), 64); err == nil && e.RetryAfter == 0 {
		e.RetryAfter = sec
	}
	return e
}

// Open performs one request against the service — path under the base URL,
// extra headers from hdr (may be nil), in marshalled as the JSON body when
// non-nil — and returns the 2xx response, body unread, for the caller to
// close. A non-2xx answer comes back as the *api.Error it carried (Status
// set), so any other error is a transport failure. It is the one request
// path under every SDK call, exported for what the typed calls drop: the
// fleet router relays a backend's own status (200 cache hit vs 202 accepted,
// 202 cancelled vs 204 deleted) and dials the long-lived streams through it.
func (c *Client) Open(ctx context.Context, method, path string, hdr map[string]string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		blob, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, decodeError(resp)
	}
	return resp, nil
}

// doJSON is Open for the typed calls: it decodes the 2xx JSON body into out
// (when non-nil).
func (c *Client) doJSON(ctx context.Context, method, path string, hdr map[string]string, in, out any) error {
	resp, err := c.Open(ctx, method, path, hdr, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit sends a reconstruction spec, retrying retryable saturation codes
// with jittered backoff, and returns the accepted (or cache-hit) job view.
// Every submission carries W3C trace context: Submit mints a fresh trace ID
// and client root span (the returned View.TraceID echoes the trace; follow
// it with Trace). To join an existing trace, use SubmitTraced.
func (c *Client) Submit(ctx context.Context, spec api.Spec) (api.View, error) {
	return c.SubmitTraced(ctx, spec, api.FormatTraceParent(api.NewTraceID(), api.NewSpanID()))
}

// SubmitTraced is Submit under a caller-supplied W3C traceparent
// ("00-<32 hex trace>-<16 hex span>-01", see api.FormatTraceParent), so the
// job's spans nest into a trace the caller already owns. An empty
// traceparent submits without trace context and lets the service mint the
// trace ID. Retries reuse the same traceparent: they are one logical
// request.
func (c *Client) SubmitTraced(ctx context.Context, spec api.Spec, traceparent string) (api.View, error) {
	var hdr map[string]string
	if traceparent != "" {
		hdr = map[string]string{api.TraceParentHeader: traceparent}
	}
	var v api.View
	var lastErr error
	for attempt := 1; attempt <= c.retry.Max; attempt++ {
		lastErr = c.doJSON(ctx, http.MethodPost, "/v1/jobs", hdr, spec, &v)
		if lastErr == nil {
			return v, nil
		}
		apiErr, ok := asAPIError(lastErr)
		if !ok || !apiErr.Retryable() || attempt == c.retry.Max {
			return api.View{}, lastErr
		}
		wait := c.backoff(attempt, apiErr.RetryAfter)
		if c.retry.OnRetry != nil {
			c.retry.OnRetry(apiErr.Code, attempt, wait)
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return api.View{}, ctx.Err()
		}
	}
	return api.View{}, lastErr
}

// Get returns one job's current view.
func (c *Client) Get(ctx context.Context, id string) (api.View, error) {
	var v api.View
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id, nil, nil, &v)
	return v, err
}

// List returns all jobs in submission order.
func (c *Client) List(ctx context.Context) ([]api.View, error) {
	var vs []api.View
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs", nil, nil, &vs)
	return vs, err
}

// Cancel stops a live job or deletes a terminal one (the server's DELETE
// verb is race-free across that distinction).
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.doJSON(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil, nil)
}

// Metrics returns the service (or, through a router, fleet-aggregate)
// counters snapshot.
func (c *Client) Metrics(ctx context.Context) (api.Metrics, error) {
	var m api.Metrics
	err := c.doJSON(ctx, http.MethodGet, "/v1/metrics", nil, nil, &m)
	return m, err
}

// Trace returns the job's span tree: complete once the job has settled,
// partial (Trace.Complete == false) while it is still queued or running.
// Through a router the tree includes the router's proxy span.
func (c *Client) Trace(ctx context.Context, id string) (api.Trace, error) {
	var t api.Trace
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, nil, &t)
	return t, err
}

// Await polls a job to a terminal state and returns its final view. For
// event-driven completion use Watch; Await is the cheap fallback when only
// the outcome matters. Retryable poll errors (a router briefly rerouting
// the job around a dead backend surfaces "unavailable") are absorbed and
// polling continues; hard errors return immediately.
func (c *Client) Await(ctx context.Context, id string, poll time.Duration) (api.View, error) {
	if poll <= 0 {
		poll = 10 * time.Millisecond
	}
	for {
		v, err := c.Get(ctx, id)
		if err != nil {
			if apiErr, ok := asAPIError(err); !ok || !apiErr.Retryable() {
				return api.View{}, err
			}
			select {
			case <-time.After(poll):
				continue
			case <-ctx.Done():
				return api.View{}, ctx.Err()
			}
		}
		if v.State.Terminal() {
			return v, nil
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return api.View{}, ctx.Err()
		}
	}
}

func asAPIError(err error) (*api.Error, bool) {
	var e *api.Error
	if errors.As(err, &e) {
		return e, true
	}
	return nil, false
}
