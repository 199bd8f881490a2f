package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ifdk/pkg/api"
	"ifdk/pkg/volume"
)

// The tentpole end-to-end: kill -9 a daemon with one job mid-run and more
// queued behind it, restart on the same journal dir, and every accepted job
// comes back under its original public ID and runs to done — with volumes
// bit-identical to an uninterrupted run of the same specs.
func TestCrashRestartRecoversAcceptedJobs(t *testing.T) {
	dir := t.TempDir()
	specs := []Spec{
		{Phantom: "shepplogan", NX: 16, R: 2, C: 2},
		{Phantom: "sphere", NX: 16, R: 2, C: 2},
		{Phantom: "shepplogan", NX: 16, R: 4, C: 1},
	}

	// Workers=1 over throttled storage: the first job is pinned mid-run
	// while the rest sit queued — the crash catches both phases at once.
	m1, err := OpenManager(Options{Workers: 1, NodeID: "b0", JournalDir: dir, PFS: pfsThrottled()})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, spec := range specs {
		v, err := m1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	waitRunning(t, m1, ids[0])
	m1.Crash()

	// Restart on the same journal dir (fast storage: recovery must not
	// depend on the PFS, which died with the process).
	m2, err := OpenManager(Options{Workers: 2, NodeID: "b0", JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m2.Shutdown(ctx)
	}()

	for i, id := range ids {
		v, ok := m2.Get(id)
		if !ok {
			t.Fatalf("job %d (%s) lost across the crash", i, id)
		}
		if !v.Recovered {
			t.Errorf("job %s not flagged recovered: %+v", id, v)
		}
		if v.Spec.Phantom != specs[i].Phantom || v.Spec.R != specs[i].R {
			t.Errorf("job %s spec mangled across replay: %+v", id, v.Spec)
		}
	}
	for _, id := range ids {
		if v := waitState(t, m2, id, 2*time.Minute); v.State != StateDone {
			t.Fatalf("recovered job %s finished %s (%s), want done", id, v.State, v.Error)
		}
	}

	// Deterministic re-execution: each recovered volume is bit-identical to
	// an uninterrupted run of the same spec.
	control := NewManager(Options{Workers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = control.Shutdown(ctx)
	}()
	for i, spec := range specs {
		cv, err := control.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, control, cv.ID, 2*time.Minute)
		want, err := control.Volume(cv.ID)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m2.Volume(ids[i])
		if err != nil {
			t.Fatalf("recovered job %s: %v", ids[i], err)
		}
		if d, err := volume.MaxAbsDiff(want, got); err != nil || d != 0 {
			t.Fatalf("job %d not bit-exact across crash/restart: maxAbsDiff=%g err=%v", i, d, err)
		}
	}

	// The restarted daemon must never reissue a journaled public ID.
	nv, err := m2.Submit(Spec{Phantom: "sphere", NX: 16, R: 2, C: 2, Priority: "low"})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if nv.ID == id {
			t.Fatalf("restart reissued public ID %s", id)
		}
	}
}

// Jobs terminal before the crash come back as metadata-only views — state,
// error text, stage timings — without being re-run; deleted jobs stay gone
// but still pin the ID sequence.
func TestCrashRestartPreservesTerminalViews(t *testing.T) {
	dir := t.TempDir()
	m1, err := OpenManager(Options{Workers: 1, NodeID: "b0", JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	done, err := m1.Submit(Spec{Phantom: "shepplogan", NX: 16, R: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	doneView := waitState(t, m1, done.ID, 2*time.Minute)

	gone, err := m1.Submit(Spec{Phantom: "sphere", NX: 16, R: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, gone.ID, 2*time.Minute)
	if err := m1.Delete(gone.ID); err != nil {
		t.Fatal(err)
	}
	m1.Crash()

	m2, err := OpenManager(Options{Workers: 1, NodeID: "b0", JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m2.Shutdown(ctx)
	}()

	v, ok := m2.Get(done.ID)
	if !ok {
		t.Fatalf("terminal job %s lost across the crash", done.ID)
	}
	if v.State != StateDone {
		t.Fatalf("terminal job replayed as %s, want done", v.State)
	}
	if v.Stages.Total != doneView.Stages.Total {
		t.Errorf("stage timings not preserved: %v != %v", v.Stages.Total, doneView.Stages.Total)
	}
	if _, ok := m2.Get(gone.ID); ok {
		t.Fatalf("deleted job %s resurrected by replay", gone.ID)
	}
	nv, err := m2.Submit(Spec{Phantom: "sphere", NX: 16, R: 4, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if nv.ID == gone.ID || nv.ID == done.ID {
		t.Fatalf("restart reissued public ID %s", nv.ID)
	}
}

// A crash with nothing journaled (journaling off) must not recover phantom
// state, and a journaled manager restarted twice in a row replays cleanly —
// the compaction swap is itself durable.
func TestCrashRestartTwice(t *testing.T) {
	dir := t.TempDir()
	m1, err := OpenManager(Options{Workers: 1, NodeID: "b0", JournalDir: dir, PFS: pfsThrottled()})
	if err != nil {
		t.Fatal(err)
	}
	v, err := m1.Submit(Spec{Phantom: "shepplogan", NX: 16, R: 2, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m1, v.ID)
	m1.Crash()

	// Second crash lands before the recovered job finishes: the job must
	// survive two generations of replay + compaction.
	m2, err := OpenManager(Options{Workers: 1, NodeID: "b0", JournalDir: dir, PFS: pfsThrottled()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m2.Get(v.ID); !ok {
		t.Fatalf("job %s lost on first restart", v.ID)
	}
	m2.Crash()

	m3, err := OpenManager(Options{Workers: 1, NodeID: "b0", JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m3.Shutdown(ctx)
	}()
	if fv := waitState(t, m3, v.ID, 2*time.Minute); fv.State != StateDone {
		t.Fatalf("job %s finished %s after two crashes, want done", v.ID, fv.State)
	}
}

// A job done before a crash comes back without its volume, which died with
// the old process. Its slices and its stream, preview tier included, will
// never be served, so each answers terminal; a retryable not_yet_written (or an empty 200
// stream) would have clients retry forever.
func TestCrashRestartDoneJobWithoutResultIsTerminal(t *testing.T) {
	dir := t.TempDir()
	m1, err := OpenManager(Options{Workers: 1, NodeID: "b0", JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v, err := m1.Submit(progSpec(api.QualityProgressive))
	if err != nil {
		t.Fatal(err)
	}
	if fv := waitState(t, m1, v.ID, 2*time.Minute); fv.State != StateDone {
		t.Fatalf("job %s finished %s (%s), want done", v.ID, fv.State, fv.Error)
	}
	m1.Crash()

	m2, err := OpenManager(Options{Workers: 1, NodeID: "b0", JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(m2))
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = m2.Shutdown(ctx)
	}()
	if rv, _ := m2.Get(v.ID); rv.State != StateDone {
		t.Fatalf("job replayed as %s, want done", rv.State)
	}
	for _, path := range []string{"/slice/0", "/stream"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusConflict {
			resp.Body.Close()
			t.Errorf("%s of a replayed done job: HTTP %d, want 409", path, resp.StatusCode)
			continue
		}
		if e := decodeAPIError(t, resp); e.Code != api.CodeTerminal {
			t.Errorf("%s of a replayed done job: code %s, want %s", path, e.Code, api.CodeTerminal)
		}
	}
}
