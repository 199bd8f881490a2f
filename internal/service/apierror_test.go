package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ifdk/pkg/api"
)

// decodeAPIError asserts the response carries a well-formed api.Error
// envelope and returns it.
func decodeAPIError(t *testing.T, resp *http.Response) *api.Error {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error response Content-Type = %q, want application/json", ct)
	}
	var e api.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body is not an api.Error envelope: %v", err)
	}
	if e.Code == "" || e.Message == "" {
		t.Fatalf("envelope missing code or message: %+v", e)
	}
	return &e
}

// Every error path of the HTTP surface must emit the structured api.Error
// envelope with the documented code, the code→status mapping must hold, and
// retryable codes must carry Retry-After.
func TestErrorEnvelopeTable(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueCap: 2, CacheBytes: -1})
	defer shutdown(t, m)
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	// One cancelled job (terminal without result) for the terminal cases,
	// and one live queued job for slice not_yet_written.
	cv, err := m.Submit(Spec{Phantom: "sphere", NX: 16, NP: 32})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, cv.ID, 60*time.Second)
	// Submit a distinct spec and cancel it immediately: terminal-without-
	// result rows need a cancelled job. If the worker won the race and
	// finished it anyway, the terminal rows are skipped.
	xv, err := m.Submit(Spec{Phantom: "sphere", NX: 16, NP: 64, Priority: "low"})
	if err != nil {
		t.Fatal(err)
	}
	_ = m.Cancel(xv.ID)
	waitState(t, m, xv.ID, 60*time.Second)
	terminalID := xv.ID
	if v, _ := m.Get(xv.ID); v.State == StateDone {
		terminalID = "" // lost the race; terminal rows skipped below
	}

	type row struct {
		name       string
		method     string
		path       string
		body       string
		wantCode   string
		wantStatus int
	}
	rows := []row{
		{"submit malformed JSON", "POST", "/v1/jobs", "{not json", api.CodeBadRequest, 400},
		{"submit unknown phantom", "POST", "/v1/jobs", `{"phantom":"banana"}`, api.CodeInvalidSpec, 400},
		{"submit oversized", "POST", "/v1/jobs", `{"nx":100000}`, api.CodeInvalidSpec, 400},
		{"submit bad priority", "POST", "/v1/jobs", `{"priority":"urgent"}`, api.CodeInvalidSpec, 400},
		{"get unknown job", "GET", "/v1/jobs/nope", "", api.CodeNotFound, 404},
		{"delete unknown job", "DELETE", "/v1/jobs/nope", "", api.CodeNotFound, 404},
		{"events unknown job", "GET", "/v1/jobs/nope/events", "", api.CodeNotFound, 404},
		{"stream unknown job", "GET", "/v1/jobs/nope/stream", "", api.CodeNotFound, 404},
		{"slice unknown job", "GET", "/v1/jobs/nope/slice/0", "", api.CodeNotFound, 404},
		{"slice non-integer", "GET", "/v1/jobs/" + cv.ID + "/slice/abc", "", api.CodeBadRequest, 400},
		{"slice negative", "GET", "/v1/jobs/" + cv.ID + "/slice/-1", "", api.CodeBadRequest, 400},
		{"slice == Nz", "GET", "/v1/jobs/" + cv.ID + "/slice/16", "", api.CodeBadRequest, 400},
		{"events bad Last-Event-ID", "GET", "/v1/jobs/" + cv.ID + "/events?after=-3", "", api.CodeBadRequest, 400},
	}
	if terminalID != "" {
		rows = append(rows,
			row{"slice of cancelled job", "GET", "/v1/jobs/" + terminalID + "/slice/3", "", api.CodeTerminal, 409},
			row{"stream of cancelled job", "GET", "/v1/jobs/" + terminalID + "/stream", "", api.CodeTerminal, 409},
		)
	}
	client := ts.Client()
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			req, err := http.NewRequest(r.method, ts.URL+r.path, strings.NewReader(r.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != r.wantStatus {
				resp.Body.Close()
				t.Fatalf("status = %d, want %d", resp.StatusCode, r.wantStatus)
			}
			e := decodeAPIError(t, resp)
			if e.Code != r.wantCode {
				t.Errorf("code = %q, want %q (message %q)", e.Code, r.wantCode, e.Message)
			}
			if api.HTTPStatus(e.Code) != r.wantStatus {
				t.Errorf("contract drift: HTTPStatus(%s) = %d but handler used %d",
					e.Code, api.HTTPStatus(e.Code), r.wantStatus)
			}
			if api.Retryable(e.Code) && e.RetryAfter <= 0 {
				t.Errorf("retryable code %q without retry_after_sec", e.Code)
			}
		})
	}
}

// Saturation paths: queue_full / quota_exhausted envelopes with Retry-After
// on both header and body.
func TestErrorEnvelopeSaturation(t *testing.T) {
	post := func(ts *httptest.Server, spec string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	t.Run("quota_exhausted", func(t *testing.T) {
		m := NewManager(Options{Workers: 1, CacheBytes: -1, QuotaRPS: 0.001})
		defer shutdown(t, m)
		ts := httptest.NewServer(NewServer(m))
		defer ts.Close()
		// The first submission eats the single quota token...
		resp := post(ts, `{"phantom":"sphere","nx":16,"np":96,"client":"q"}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("first submit: HTTP %d", resp.StatusCode)
		}
		resp.Body.Close()
		// ...so the second is quota_exhausted.
		resp = post(ts, `{"phantom":"sphere","nx":16,"np":128,"client":"q"}`)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("quota submit: HTTP %d, want 429", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Error("429 without Retry-After header")
		}
		e := decodeAPIError(t, resp)
		if e.Code != api.CodeQuotaExhausted || e.RetryAfter <= 0 {
			t.Fatalf("envelope = %+v, want quota_exhausted with retry_after_sec", e)
		}
	})

	t.Run("queue_full", func(t *testing.T) {
		// Slow staged reads keep the first job running while the 1-slot
		// queue fills behind it.
		m := NewManager(Options{Workers: 1, QueueCap: 1, CacheBytes: -1, PFS: pfsThrottled()})
		defer shutdown(t, m)
		ts := httptest.NewServer(NewServer(m))
		defer ts.Close()
		deadline := time.Now().Add(30 * time.Second)
		for i := 0; ; i++ {
			if time.Now().After(deadline) {
				t.Fatal("never observed queue_full")
			}
			resp := post(ts, fmt.Sprintf(`{"phantom":"sphere","nx":16,"np":%d}`, 96+32*(i%8)))
			if resp.StatusCode == http.StatusServiceUnavailable {
				e := decodeAPIError(t, resp)
				if e.Code != api.CodeQueueFull {
					t.Fatalf("503 code = %q, want queue_full", e.Code)
				}
				if e.RetryAfter <= 0 {
					t.Error("queue_full without retry_after_sec")
				}
				return
			}
			resp.Body.Close()
		}
	})
}
