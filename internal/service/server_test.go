package service

import (
	"bytes"
	"context"
	"encoding/json"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ifdk/pkg/api"
)

func startTestServer(t *testing.T, opt Options) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(opt)
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m.Shutdown(ctx)
	})
	return ts, m
}

func postJob(t *testing.T, url string, spec Spec) (*http.Response, View) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v View
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return resp, v
}

func getView(t *testing.T, url, id string) (int, View) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v View
	_ = json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v
}

// Full API round-trip: submit, poll to completion, fetch a slice PNG,
// observe the cache on resubmission, read metrics, delete.
func TestAPIRoundTrip(t *testing.T) {
	ts, _ := startTestServer(t, Options{Workers: 2})
	spec := testSpec()

	resp, v := postJob(t, ts.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, cur := getView(t, ts.URL, v.ID)
		if code != http.StatusOK {
			t.Fatalf("get status = %d", code)
		}
		if cur.State.Terminal() {
			if cur.State != StateDone {
				t.Fatalf("job ended %s: %s", cur.State, cur.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Slice endpoint returns a decodable PNG of the right size.
	sresp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/slice/8")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("slice status = %d", sresp.StatusCode)
	}
	if ct := sresp.Header.Get("Content-Type"); ct != "image/png" {
		t.Fatalf("slice content type = %s", ct)
	}
	img, err := png.Decode(sresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if b := img.Bounds(); b.Dx() != 16 || b.Dy() != 16 {
		t.Fatalf("slice is %dx%d, want 16x16", b.Dx(), b.Dy())
	}

	// Out-of-range slice is a 400.
	oresp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/slice/99")
	if err != nil {
		t.Fatal(err)
	}
	oresp.Body.Close()
	if oresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range slice status = %d", oresp.StatusCode)
	}

	// Identical resubmission is served instantly from the cache with 200.
	resp2, v2 := postJob(t, ts.URL, spec)
	if resp2.StatusCode != http.StatusOK || !v2.CacheHit {
		t.Fatalf("resubmit: status %d, cacheHit %v", resp2.StatusCode, v2.CacheHit)
	}

	// Metrics reflect the traffic.
	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var mt Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&mt); err != nil {
		t.Fatal(err)
	}
	// One real reconstruction plus one cache hit: the hit must NOT inflate
	// the completed (real runs) counter that feeds jobs_per_sec.
	if mt.Completed != 1 || mt.CacheHits != 1 || mt.Cache.Hits < 1 || mt.Workers != 2 {
		t.Fatalf("metrics = %+v", mt)
	}

	// List shows both jobs.
	lresp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list []View
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("list has %d jobs, want 2", len(list))
	}

	// DELETE on a terminal job removes it.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d", dresp.StatusCode)
	}
	if code, _ := getView(t, ts.URL, v.ID); code != http.StatusNotFound {
		t.Fatalf("deleted job still served: %d", code)
	}
}

func TestAPIRejectsBadRequests(t *testing.T) {
	ts, _ := startTestServer(t, Options{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d", resp.StatusCode)
	}
	bad := testSpec()
	bad.Phantom = "unicorn"
	resp2, _ := postJob(t, ts.URL, bad)
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad phantom status = %d", resp2.StatusCode)
	}
	body, _ := json.Marshal(testSpec())
	resp3, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		io.MultiReader(strings.NewReader(strings.Repeat(" ", api.MaxSpecBytes)), bytes.NewReader(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-long body status = %d", resp3.StatusCode)
	}
	if code, _ := getView(t, ts.URL, "nonexistent"); code != http.StatusNotFound {
		t.Fatalf("unknown job status = %d", code)
	}
}

// DELETE must be race-free against job completion: a job may reach a
// terminal state between the handler's Get and its Cancel, and the handler
// must fall through to deletion instead of surfacing a spurious 409. The
// old handler flaked exactly this way; hammer the window with fast jobs.
func TestAPIDeleteNeverConflictsWithCompletion(t *testing.T) {
	ts, _ := startTestServer(t, Options{Workers: 2, QueueCap: 32})
	for i := 0; i < 12; i++ {
		spec := testSpec()
		spec.NP = 32 + 4*(i%5) // mix of fresh runs and cache hits
		_, v := postJob(t, ts.URL, spec)
		if v.ID == "" {
			t.Fatal("submit failed")
		}
		// Race DELETE against the job finishing on its own.
		deadline := time.Now().Add(30 * time.Second)
		for deleted := false; !deleted; {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted: // cancelled while live; try again until deleted
			case http.StatusNoContent, http.StatusNotFound:
				deleted = true // gone (404 = raced with our own earlier delete)
			case http.StatusConflict:
				t.Fatalf("job %d: spurious 409 from DELETE race", i)
			default:
				t.Fatalf("job %d: DELETE status %d", i, resp.StatusCode)
			}
			if !deleted {
				if time.Now().After(deadline) {
					t.Fatalf("job %d: never settled", i)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
}

// Per-client quotas: a client that bursts past its token bucket gets 429
// with Retry-After while other clients keep submitting.
func TestAPIQuota(t *testing.T) {
	// Each client's bucket holds max(1, 2·0.01) = 1 token and refills one
	// per 100 s.
	ts, _ := startTestServer(t, Options{Workers: 1, QueueCap: 32, QuotaRPS: 0.01})
	specN := func(client string, np int) Spec {
		s := testSpec()
		s.Client = client
		s.NP = np
		return s
	}
	if resp, _ := postJob(t, ts.URL, specN("greedy", 32)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("burst submit: status %d", resp.StatusCode)
	}
	body, _ := json.Marshal(specN("greedy", 48))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if r2, _ := postJob(t, ts.URL, specN("patient", 52)); r2.StatusCode != http.StatusAccepted {
		t.Fatalf("other client hit by greedy client's quota: status %d", r2.StatusCode)
	}
}

// DELETE on a live job cancels it.
func TestAPICancelViaDelete(t *testing.T) {
	ts, _ := startTestServer(t, Options{
		Workers: 1,
		PFS:     pfsThrottled(),
	})
	_, v := postJob(t, ts.URL, testSpec())
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, cur := getView(t, ts.URL, v.ID)
		if cur.State.Terminal() {
			if cur.State != StateCancelled {
				t.Fatalf("state = %s, want cancelled", cur.State)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("cancel never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// /slice never answers not_yet_written for a slice already written. Two
// readers poll a published slice while its job settles, which hands the
// job's volume over to its result; every read must get the slice. The
// race is narrow, so the test runs it over many jobs.
func TestSliceServedAcrossSettle(t *testing.T) {
	for round := 0; round < 20; round++ {
		gate := newSliceGate()
		m := NewManager(Options{Workers: 1, testOnSlice: gate.hook})
		srv := NewServer(m)
		v, err := m.Submit(testSpec())
		if err != nil {
			t.Fatal(err)
		}
		url := "/v1/jobs/" + v.ID + "/slice/" + strconv.Itoa(waitSliceEvent(t, m, v.ID).Z)
		stop := make(chan struct{})
		var reads, failed atomic.Int32
		var wg sync.WaitGroup
		for k := 0; k < 2; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
					reads.Add(1)
					if rec.Code != http.StatusOK {
						failed.Add(1)
					}
				}
			}()
		}
		gate.open()
		waitState(t, m, v.ID, 30*time.Second)
		requireNoJobOutput(t, m)
		close(stop)
		wg.Wait()
		shutdown(t, m)
		if failed.Load() > 0 {
			t.Fatalf("job %d: %d of %d reads of a written slice failed", round, failed.Load(), reads.Load())
		}
	}
}
