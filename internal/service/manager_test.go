package service

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"ifdk/internal/core"
	"ifdk/internal/engine"
	"ifdk/internal/hpc/pfs"
	"ifdk/pkg/api"
)

func testSpec() Spec {
	return Spec{Phantom: "shepplogan", NX: 16, R: 2, C: 2}
}

// pfsThrottled models slow storage so in-flight jobs live long enough for
// cancellation tests to land mid-run.
func pfsThrottled() pfs.Config {
	return pfs.Config{ReadBW: 2e6, Throttle: true}
}

func waitState(t *testing.T, m *Manager, id string, timeout time.Duration) View {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		v, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if v.State.Terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	v, _ := m.Get(id)
	t.Fatalf("job %s stuck in %s after %v", id, v.State, timeout)
	return View{}
}

// requireNoJobOutput fails the test when anything is stored under jobs/: a
// job's output lives in its volume and never touches the PFS.
func requireNoJobOutput(t *testing.T, m *Manager) {
	t.Helper()
	if objs := m.Store().List("jobs/"); len(objs) != 0 {
		t.Fatalf("%d objects under jobs/ on the PFS, first %s", len(objs), objs[0])
	}
}

func shutdown(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), baseline)
}

// A burst beyond queue+pool capacity must hit backpressure; everything
// admitted must complete correctly.
func TestSaturationAndCompletion(t *testing.T) {
	m := NewManager(Options{Workers: 2, QueueCap: 3})
	var admitted []string
	sawFull := false
	spec := testSpec()
	spec.Verify = true
	// Vary NP across submissions so no two specs share a cache entry.
	for i := 0; i < 12; i++ {
		s := spec
		s.NP = 32 + 4*(i%6)
		v, err := m.Submit(s)
		if errors.Is(err, ErrQueueFull) {
			sawFull = true
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		admitted = append(admitted, v.ID)
	}
	if !sawFull {
		t.Error("no backpressure despite 12 submits into a 2+3 service")
	}
	if len(admitted) == 0 {
		t.Fatal("nothing admitted")
	}
	for _, id := range admitted {
		v := waitState(t, m, id, 30*time.Second)
		if v.State != StateDone && !v.CacheHit {
			t.Errorf("job %s: state %s (%s)", id, v.State, v.Error)
		}
		if v.State == StateDone && !v.CacheHit {
			if !v.Verified || v.RelRMSE > 1e-5 {
				t.Errorf("job %s: verified=%v relRMSE=%g, want < 1e-5", id, v.Verified, v.RelRMSE)
			}
		}
	}
	shutdown(t, m)
}

// An identical resubmission after completion must be served from the cache
// instantly, sharing the first run's timings and verification.
func TestCacheHitOnResubmit(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	first, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	v1 := waitState(t, m, first.ID, 30*time.Second)
	if v1.State != StateDone || v1.CacheHit {
		t.Fatalf("first run: %+v", v1)
	}
	second, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || !second.CacheHit {
		t.Fatalf("resubmission not served from cache: %+v", second)
	}
	volA, err := m.Volume(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	volB, err := m.Volume(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if volA != volB {
		t.Error("cache hit did not share the stored volume")
	}
	// A different grid over the same dataset is a different result.
	other := testSpec()
	other.R, other.C = 4, 1
	v3, err := m.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if v3.CacheHit {
		t.Error("different grid shape hit the cache")
	}
	waitState(t, m, v3.ID, 30*time.Second)
	st := m.Metrics().Cache
	if st.Hits != 1 {
		t.Errorf("cache hits = %d, want 1", st.Hits)
	}
	shutdown(t, m)
}

// A resubmission made the instant the terminal event arrives must hit the
// cache: runJob stores the entry before it flips the job to done. (It used
// to store it after publishing done, and TestCacheHitOnResubmit's poll lost
// that race 2–3 runs in 400.)
func TestCacheHitFromTerminalEventSubscriber(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer shutdown(t, m)
	first, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.subscribe(first.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		batch, open := sub.Next(ctx)
		if n := len(batch); n > 0 && batch[n-1].Type == EventDone {
			break
		}
		if !open {
			t.Fatalf("event stream ended without a done event: %+v", batch)
		}
	}
	second, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if second.State != StateDone || !second.CacheHit {
		t.Fatalf("resubmission from the done event not served from cache: %+v", second)
	}
}

// A verify request must not be satisfied by an unverified cached entry.
func TestVerifyBypassesUnverifiedCacheEntry(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	plain, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, plain.ID, 30*time.Second)
	withVerify := testSpec()
	withVerify.Verify = true
	v, err := m.Submit(withVerify)
	if err != nil {
		t.Fatal(err)
	}
	if v.CacheHit {
		t.Fatal("verify request served from an unverified cache entry")
	}
	final := waitState(t, m, v.ID, 30*time.Second)
	if !final.Verified || final.RelRMSE > 1e-5 {
		t.Fatalf("verification missing: %+v", final)
	}
	// The verified entry replaced the cached one: now verify requests hit.
	v2, err := m.Submit(withVerify)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.CacheHit || !v2.Verified {
		t.Fatalf("verified resubmission missed the cache: %+v", v2)
	}
	shutdown(t, m)
}

// Oversized requests are rejected at admission, not run to OOM.
func TestSubmitRejectsOversizedProblems(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	for _, s := range []Spec{
		{Phantom: "sphere", NX: 1024, R: 2, C: 2},
		{Phantom: "sphere", NX: 16, NP: 100000, R: 2, C: 2},
		{Phantom: "sphere", NX: 16, R: 16, C: 16},
	} {
		if _, err := m.Submit(s); err == nil {
			t.Errorf("oversized spec accepted: %+v", s)
		}
	}
	shutdown(t, m)
}

// The job table stays bounded: old terminal records are pruned once its
// bound is exceeded.
func TestJobRecordsPruned(t *testing.T) {
	m := NewManager(Options{Workers: 1, testMaxJobs: 3})
	var ids []string
	for i := 0; i < 6; i++ {
		s := testSpec()
		s.NP = 32 + 4*i
		v, err := m.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, v.ID, 30*time.Second)
		ids = append(ids, v.ID)
	}
	if n := len(m.List()); n > 3 {
		t.Fatalf("job table holds %d records, want <= 3", n)
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Error("oldest record survived pruning")
	}
	requireNoJobOutput(t, m)
	if _, ok := m.Get(ids[5]); !ok {
		t.Error("newest record was pruned")
	}
	shutdown(t, m)
}

// waitComputing waits until job id has finished at least one AllGather
// round, so a cancel lands mid-pipeline rather than mid-staging.
func waitComputing(t *testing.T, m *Manager, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, _ := m.Get(id)
		if cur.State == StateRunning && cur.Progress > 0 {
			return
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished before cancel: %+v", cur)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Cancelling an in-flight job must return promptly and leak nothing.
func TestCancelMidRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// Throttled storage stretches the run so the cancel lands mid-flight.
	m := NewManager(Options{Workers: 1, PFS: pfsThrottled()})
	v, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitComputing(t, m, v.ID)
	start := time.Now()
	if err := m.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, v.ID, 10*time.Second)
	if final.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancel took %v", d)
	}
	if err := m.Cancel(v.ID); err == nil {
		t.Error("cancelling a terminal job succeeded")
	}
	shutdown(t, m)
	waitGoroutines(t, baseline)
}

// Cancelling one of two co-resident same-plan jobs mid-run must tear down
// cleanly: the other job finishes, nothing deadlocks, and every pooled
// buffer of both jobs is back in the engine pools.
func TestCancelOneOfTwoCoResidentJobs(t *testing.T) {
	m := NewManager(Options{Workers: 2, PFS: pfsThrottled()})

	victim := testSpec()
	victim.NP = 64
	survivorSpec := testSpec()
	survivorSpec.NP = 68
	v1, err := m.Submit(victim)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := m.Submit(survivorSpec)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel one once it is inside the pipeline.
	waitComputing(t, m, v1.ID)
	if err := m.Cancel(v1.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, v1.ID, 60*time.Second)
	if got.State != StateCancelled && got.State != StateDone {
		t.Fatalf("victim settled %s: %s", got.State, got.Error)
	}
	sv := waitState(t, m, v2.ID, 60*time.Second)
	if sv.State != StateDone {
		t.Fatalf("survivor settled %s: %s", sv.State, sv.Error)
	}
	// Shutdown waits for the cancelled job's ranks to finish unwinding.
	shutdown(t, m)
	if n := engine.InUseBytes(); n != 0 {
		t.Errorf("engine pools hold %d bytes after both jobs settled", n)
	}
}

// Cancelling a queued job withdraws it before it ever runs.
func TestCancelQueued(t *testing.T) {
	m := NewManager(Options{Workers: 1, QueueCap: 8, PFS: pfsThrottled()})
	blocker, err := m.Submit(testSpec()) // occupies the only worker
	if err != nil {
		t.Fatal(err)
	}
	queuedSpec := testSpec()
	queuedSpec.NP = 48
	queued, err := m.Submit(queuedSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Get(queued.ID)
	if v.State != StateCancelled {
		t.Fatalf("queued job state = %s", v.State)
	}
	_ = m.Cancel(blocker.ID)
	shutdown(t, m)
}

// A job's output never touches the PFS. Each slice /slice serves the moment
// it is published mid-run is plane z of the final volume, bit for bit, and
// the PFS holds nothing under jobs/ at any callback or after the settle.
// Delete then removes the record.
func TestDeleteJobCleansNamespace(t *testing.T) {
	var m *Manager
	var srv *Server
	var mu sync.Mutex
	served := map[int][]byte{} // z → the PNG /slice answered mid-run
	views := map[int][]float32{}
	m = NewManager(Options{Workers: 1, testOnSlice: func(id string, z int) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/slice/"+strconv.Itoa(z), nil))
		j, _ := m.job(id)
		img, _, _ := m.slice(j, z, nil)
		mu.Lock()
		defer mu.Unlock()
		if rec.Code != http.StatusOK || img == nil {
			t.Errorf("slice %d published but /slice answered %d (view %v)", z, rec.Code, img != nil)
			return
		}
		served[z], views[z] = rec.Body.Bytes(), slices.Clone(img.Data)
		if objs := m.Store().List("jobs/"); len(objs) != 0 {
			t.Errorf("slice %d: %d objects under jobs/ mid-run, first %s", z, len(objs), objs[0])
		}
	}})
	srv = NewServer(m)
	defer shutdown(t, m)
	v, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := waitState(t, m, v.ID, 30*time.Second); got.State != StateDone {
		t.Fatalf("state %s: %s", got.State, got.Error)
	}
	requireNoJobOutput(t, m)
	vol, err := m.Volume(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(served) != vol.Nz {
		t.Fatalf("%d of %d slices served mid-run", len(served), vol.Nz)
	}
	for z, png := range served {
		plane := planeZ(vol, z)
		var want bytes.Buffer
		if err := plane.WritePNG(&want, 0, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(png, want.Bytes()) || !slices.Equal(views[z], plane.Data) {
			t.Errorf("slice %d served mid-run differs from plane %d of the final volume", z, z)
		}
	}
	if err := m.Delete(v.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Get(v.ID); ok {
		t.Error("job record survived delete")
	}
}

// A done job's volume is the one core.Run assembles at rank 0 from the same
// staged scan, bit for bit, on every grid shape and with or without the
// preview tier ahead of the run: the row roots' hand-over puts every plane
// in its place.
func TestJobVolumeMatchesCoreAssembly(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer shutdown(t, m)
	// A window per quality keeps the progressive jobs off the full jobs'
	// cache entries, so both run.
	window := map[string]string{api.QualityFull: "ram-lak", api.QualityProgressive: "hann"}
	for _, grid := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {4, 2}} {
		for _, q := range []string{api.QualityFull, api.QualityProgressive} {
			spec := Spec{Phantom: "shepplogan", NX: 16, R: grid[0], C: grid[1], Quality: q, Window: window[q]}
			v, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := waitState(t, m, v.ID, 30*time.Second); got.State != StateDone {
				t.Fatalf("%v %s: state %s: %s", grid, q, got.State, got.Error)
			}
			got, err := m.Volume(v.ID)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := resolveSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := rs.cfg
			cfg.AssembleVolume = true
			ref, err := core.Run(cfg, m.Store())
			if err != nil {
				t.Fatal(err)
			}
			if got.Nx != ref.Volume.Nx || got.Ny != ref.Volume.Ny || got.Nz != ref.Volume.Nz || got.Layout != ref.Volume.Layout {
				t.Fatalf("%v %s: job volume %dx%dx%d %v, core's %dx%dx%d %v", grid, q,
					got.Nx, got.Ny, got.Nz, got.Layout, ref.Volume.Nx, ref.Volume.Ny, ref.Volume.Nz, ref.Volume.Layout)
			}
			for i, x := range ref.Volume.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(x) {
					t.Fatalf("%v %s: voxel %d is %g, core assembled %g", grid, q, i, got.Data[i], x)
				}
			}
		}
	}
}

// After Shutdown the manager rejects submissions and has drained its pool.
func TestShutdownRejectsAndDrains(t *testing.T) {
	m := NewManager(Options{Workers: 2})
	v, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	shutdown(t, m)
	final, _ := m.Get(v.ID)
	if !final.State.Terminal() {
		t.Errorf("in-flight job not terminal after graceful shutdown: %s", final.State)
	}
	if _, err := m.Submit(testSpec()); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after shutdown: %v", err)
	}
}

// Hammer the cancel-vs-pop race: Cancel's queue.Remove is best-effort and
// can lose to a concurrent worker Pop, so the worker must re-check terminal
// state after popping. A job the client was told is cancelled must never run
// anyway (flip back to running/done). Run under -race; before the re-check
// this reliably flips a few jobs per thousand.
func TestCancelPopRaceNeverRevivesJob(t *testing.T) {
	m := NewManager(Options{Workers: 4, QueueCap: 256, CacheBytes: -1, PFS: pfsThrottled()})
	defer shutdown(t, m)

	const rounds = 60
	cancelled := make([]string, 0, rounds)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < rounds; i++ {
		spec := testSpec()
		spec.NP = 32 + i // distinct cache keys: a cache hit would dodge the queue entirely
		v, err := m.Submit(spec)
		if err != nil {
			continue // queue momentarily full: fine, the race needs depth, not every job
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if err := m.Cancel(id); err != nil {
				return // already terminal: not a queued-cancel race
			}
			if v, ok := m.Get(id); ok && v.State == StateCancelled {
				mu.Lock()
				cancelled = append(cancelled, id)
				mu.Unlock()
			}
		}(v.ID)
	}
	wg.Wait()
	if len(cancelled) == 0 {
		t.Skip("no cancellation landed while queued; race window not exercised")
	}
	for _, id := range cancelled {
		v := waitState(t, m, id, time.Minute)
		if v.State != StateCancelled {
			t.Fatalf("job %s was acked cancelled but ended %s — worker revived a corpse", id, v.State)
		}
	}
}
