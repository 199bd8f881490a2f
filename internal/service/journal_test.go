package service

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ifdk/pkg/api"
)

func jSpec(nx int) api.Spec {
	return api.Spec{Phantom: "shepplogan", NX: nx, R: 2, C: 2}
}

// Replay must be order-tolerant: the worker pool's start/terminal appends
// race the submit path's own append, so any interleaving of a job's records
// must merge to the same state.
func TestMergeRecordsOrderTolerant(t *testing.T) {
	spec := jSpec(16)
	submit := journalRecord{T: recSubmit, ID: "b0-j00000003", Spec: &spec, TraceID: "t1"}
	start := journalRecord{T: recStart, ID: "b0-j00000003", Started: "2026-08-08T10:00:00Z"}
	term := journalRecord{T: recTerminal, ID: "b0-j00000003", State: "done",
		Finished: "2026-08-08T10:00:05Z", Verified: true, RelRMSE: 0.01}

	orders := [][]journalRecord{
		{submit, start, term},
		{term, start, submit}, // worker finished before Submit's append landed
		{start, submit, term},
	}
	for i, recs := range orders {
		jobs, maxSeq := mergeRecords(recs)
		if len(jobs) != 1 {
			t.Fatalf("order %d: %d jobs recovered, want 1", i, len(jobs))
		}
		j := jobs[0]
		if j.State != api.StateDone || !j.term.Verified || j.term.RelRMSE != 0.01 {
			t.Fatalf("order %d: terminal state lost: %+v", i, j)
		}
		if j.submit.Spec.NX != 16 || j.submit.TraceID != "t1" {
			t.Fatalf("order %d: submit fields lost: %+v", i, j)
		}
		if j.started == "" || j.term.Finished == "" {
			t.Fatalf("order %d: timestamps lost: %+v", i, j)
		}
		if maxSeq != 3 {
			t.Fatalf("order %d: maxSeq = %d, want 3", i, maxSeq)
		}
	}
}

// A job whose records never include a submit (its submit append was the torn
// line) cannot be recovered, and a deleted job must not come back — but both
// IDs must still raise the sequence high-water mark so their public IDs are
// never reissued.
func TestMergeRecordsDropsDeletedButPinsSeq(t *testing.T) {
	spec := jSpec(16)
	jobs, maxSeq := mergeRecords([]journalRecord{
		{T: recSubmit, ID: "b0-j00000002", Spec: &spec},
		{T: recDelete, ID: "b0-j00000002"},
		{T: recStart, ID: "b0-j00000009"}, // submit record lost
		{T: recSeq, ID: "_", Seq: 5},
	})
	if len(jobs) != 0 {
		t.Fatalf("recovered %d jobs, want 0: %+v", len(jobs), jobs)
	}
	if maxSeq != 9 {
		t.Fatalf("maxSeq = %d, want 9 (highest of delete-victim, orphan start and recSeq)", maxSeq)
	}
}

// A non-terminal job — queued or mid-run at the crash — must come back
// StateQueued, whatever its last recorded transition was.
func TestMergeRecordsRequeuesNonTerminal(t *testing.T) {
	spec := jSpec(16)
	jobs, _ := mergeRecords([]journalRecord{
		{T: recSubmit, ID: "b0-j00000001", Spec: &spec},
		{T: recStart, ID: "b0-j00000001", Started: "2026-08-08T10:00:00Z"},
	})
	if len(jobs) != 1 || jobs[0].State != api.StateQueued {
		t.Fatalf("mid-run job not requeued: %+v", jobs)
	}
}

func TestIDSeq(t *testing.T) {
	for _, tc := range []struct {
		id   string
		want int64
	}{
		{"b0-j00000007", 7},
		{"node-j123", 123},
		{"nodigits", 0},
		{"j42", 42},
		{"", 0},
	} {
		if got := idSeq(tc.id); got != tc.want {
			t.Errorf("idSeq(%q) = %d, want %d", tc.id, got, tc.want)
		}
	}
}

// A torn final line — the crash-mid-append signature — and corrupt lines
// elsewhere must be skipped without bricking recovery of the other jobs.
func TestReadJournalSkipsTornLines(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalFile)
	content := `{"t":"submit","id":"b0-j00000001","spec":{"phantom":"shepp-logan","nx":16,"ny":16,"nz":16,"nu":32,"nv":32,"np":32}}
this is not json
{"t":"submit","id":"b0-j00000002","spec":{"phantom":"shepp-logan","nx":16,"ny":16,"nz":16,"nu":32,"nv":32,"np":32}}
{"t":"terminal","id":"b0-j000000`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2: %+v", len(recs), recs)
	}
	if recs[0].ID != "b0-j00000001" || recs[1].ID != "b0-j00000002" {
		t.Fatalf("wrong records survived: %+v", recs)
	}
}

// openJournal must compact on boot: the rewritten file replays to the same
// recovery set, carries a recSeq pin, and drops dead records (deletes,
// superseded transitions).
func TestJournalCompactionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jn, recovered, maxSeq, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 || maxSeq != 0 {
		t.Fatalf("fresh journal recovered state: %d jobs, seq %d", len(recovered), maxSeq)
	}
	spec := jSpec(16)
	specDel := jSpec(24)
	appendAll := func(recs ...journalRecord) {
		t.Helper()
		for _, rec := range recs {
			if err := jn.append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendAll(
		journalRecord{T: recSubmit, ID: "b0-j00000001", Spec: &spec, Submitted: "2026-08-08T09:00:00Z"},
		journalRecord{T: recStart, ID: "b0-j00000001", Started: "2026-08-08T09:00:01Z"},
		journalRecord{T: recTerminal, ID: "b0-j00000001", State: "done", Finished: "2026-08-08T09:00:02Z"},
		journalRecord{T: recSubmit, ID: "b0-j00000002", Spec: &spec, Submitted: "2026-08-08T09:01:00Z"},
		journalRecord{T: recStart, ID: "b0-j00000002", Started: "2026-08-08T09:01:01Z"},
		// j3: submitted and deleted — must vanish but pin the sequence.
		journalRecord{T: recSubmit, ID: "b0-j00000003", Spec: &specDel},
		journalRecord{T: recDelete, ID: "b0-j00000003"},
	)
	jn.close()

	jn2, recovered, maxSeq, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.close()
	if maxSeq != 3 {
		t.Fatalf("maxSeq = %d, want 3 (deleted job still pins the sequence)", maxSeq)
	}
	if len(recovered) != 2 {
		t.Fatalf("recovered %d jobs, want 2: %+v", len(recovered), recovered)
	}
	if recovered[0].ID != "b0-j00000001" || recovered[0].State != api.StateDone {
		t.Fatalf("terminal job mangled: %+v", recovered[0])
	}
	if recovered[1].ID != "b0-j00000002" || recovered[1].State != api.StateQueued {
		t.Fatalf("mid-run job not requeued: %+v", recovered[1])
	}

	// The compacted file must be minimal: a recSeq pin, then submit (+
	// start + terminal) per live job — no delete or j3 records, and no
	// start record for the requeued job, which runs again.
	blob, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(blob)), "\n")
	if len(lines) != 5 {
		t.Fatalf("compacted journal has %d lines, want 5 (seq + 2×submit + start + terminal):\n%s",
			len(lines), blob)
	}
	if !strings.Contains(lines[0], `"t":"seq"`) || !strings.Contains(lines[0], `"seq":3`) {
		t.Fatalf("first compacted line is not the seq pin: %s", lines[0])
	}
	if strings.Contains(string(blob), "j00000003") {
		t.Fatalf("deleted job survived compaction:\n%s", blob)
	}
	if strings.Count(string(blob), `"t":"start"`) != 1 || strings.Contains(string(blob), `"t":"delete"`) {
		t.Fatalf("compaction kept dead records:\n%s", blob)
	}

	// A third replay of the compacted file must reproduce the same set —
	// compaction is idempotent.
	jn2.close()
	jn3, again, seqAgain, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jn3.close()
	if len(again) != 2 || seqAgain != 3 {
		t.Fatalf("compaction not idempotent: %d jobs, seq %d", len(again), seqAgain)
	}
}

// Appends after close must report errJournalClosed — Crash's simulated kill
// point: a still-unwinding worker cannot reach the file.
func TestJournalClosedAppend(t *testing.T) {
	jn, _, _, err := openJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jn.close()
	jn.close() // double close is safe
	spec := jSpec(16)
	if err := jn.append(journalRecord{T: recSubmit, ID: "x-j1", Spec: &spec}); err != errJournalClosed {
		t.Fatalf("append after close = %v, want errJournalClosed", err)
	}
}

// A client id too long for one journal line is an invalid spec, and a line
// that long already in the journal is skipped like any corrupt one: neither
// stops a restart from recovering the other jobs.
func TestLongClientCannotBrickRecovery(t *testing.T) {
	dir := t.TempDir()
	m1, err := OpenManager(Options{Workers: 1, NodeID: "b0", JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	long := testSpec()
	long.Client = strings.Repeat("c", 2<<20)
	if _, err := m1.Submit(long); err == nil {
		t.Fatal("accepted a 2 MiB client id")
	}
	// The record a daemon without the bound journaled.
	if err := m1.journal.append(journalRecord{T: recSubmit, ID: "b0-j00000009", Spec: &long}); err != nil {
		t.Fatal(err)
	}
	v, err := m1.Submit(testSpec())
	if err != nil {
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
	if _, ok := m2.Get(v.ID); !ok {
		t.Fatalf("job %s lost across the restart", v.ID)
	}
}

// FuzzReadJournal: whatever bytes the journal holds, replay never panics,
// and replaying the journal that compaction writes from it gives back the
// same jobs and sequence high-water mark.
func FuzzReadJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, journalFile)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := readJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		jobs, maxSeq := mergeRecords(recs)
		if err := compactJournal(dir, path, jobs, maxSeq); err != nil {
			t.Fatal(err)
		}
		if recs, err = readJournal(path); err != nil {
			t.Fatal(err)
		}
		again, seqAgain := mergeRecords(recs)
		if seqAgain != maxSeq || !reflect.DeepEqual(again, jobs) {
			t.Fatalf("compaction changed the replay: seq %d -> %d\n%+v\n%+v", maxSeq, seqAgain, jobs, again)
		}
	})
}
