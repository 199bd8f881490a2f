package service

import (
	"context"
	"hash/fnv"
	"maps"
	"path"
	"strings"
	"testing"
	"time"

	"ifdk/internal/engine"
	"ifdk/internal/hpc/pfs"
)

// stagingSpec stages a small scan on an odd detector (41²).
func stagingSpec(ph string) Spec {
	return Spec{Phantom: ph, NX: 16, NU: 41, NP: 32, R: 2, C: 2}
}

// stagedFNV is FNV-64a over every staged blob of spec's dataset, in path
// order.
func stagedFNV(t *testing.T, m *Manager, spec Spec) uint64 {
	t.Helper()
	r, err := resolveSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	paths := m.Store().List(r.cfg.InputPrefix + "/")
	if len(paths) != spec.NP {
		t.Fatalf("%d staged projections, want %d", len(paths), spec.NP)
	}
	h := fnv.New64a()
	for _, p := range paths {
		blob, _, err := m.Store().Peek(p)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(blob)
	}
	return h.Sum64()
}

// stagedOrLocked counts the entries of m's dataset table that are marked
// staged or whose lock is held. It reads staged only while holding the
// entry's lock, as stageDataset does.
func stagedOrLocked(m *Manager) int {
	m.datasets.stageMu.Lock()
	defer m.datasets.stageMu.Unlock()
	n := 0
	for _, d := range m.datasets.staged {
		select {
		case d.lock <- struct{}{}:
			if d.staged {
				n++
			}
			<-d.lock
		default:
			n++ // held by a stager
		}
	}
	return n
}

// stagedFNVs are the staged bytes of stagingSpec as rendered by the one-ray
// derivation, one pixel at a time and serially (DetectorRay → LineIntegral
// before the renderer was split by what each value depends on). Staging on
// every core, from the split renderer, must reproduce them exactly.
var stagedFNVs = map[string]uint64{
	"shepplogan": 0x7f2c942ff7718b99,
	"sphere":     0x99eefc45af2cb725,
	"industrial": 0x6abf472ccca4562b,
}

func TestStagedBytesUnchanged(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	for ph, want := range stagedFNVs {
		spec := stagingSpec(ph)
		v, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := waitState(t, m, v.ID, 30*time.Second); got.State != StateDone {
			t.Fatalf("%s: state %s: %s", ph, got.State, got.Error)
		}
		if got := stagedFNV(t, m, spec); got != want {
			t.Errorf("%s: staged bytes FNV %#016x, want %#016x", ph, got, want)
		}
	}
	shutdown(t, m)
}

// A PFS write that fails mid-scan fails the job with the injected error,
// leaves no dataset object behind and no dataset entry staged or locked,
// and returns every pooled image; a resubmission re-stages the same bytes.
func TestStagingWriteFaultMidScan(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	spec := stagingSpec("shepplogan")
	m.Store().FailAfterWrites(10)
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, v.ID, 30*time.Second)
	if got.State != StateFailed || !strings.Contains(got.Error, "injected write failure") {
		t.Fatalf("state %s (%q), want failed with the injected write error", got.State, got.Error)
	}
	if objs := m.Store().List("ds/"); len(objs) != 0 {
		t.Errorf("%d dataset objects survived the failed staging", len(objs))
	}
	if n := stagedOrLocked(m); n != 0 {
		t.Errorf("%d dataset entries still staged or locked after the failure", n)
	}

	m.Store().FailAfterWrites(-1)
	v, err = m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitState(t, m, v.ID, 30*time.Second); got.State != StateDone {
		t.Fatalf("resubmission: state %s: %s", got.State, got.Error)
	}
	if got, want := stagedFNV(t, m, spec), stagedFNVs["shepplogan"]; got != want {
		t.Errorf("re-staged bytes FNV %#016x, want %#016x", got, want)
	}
	shutdown(t, m)
	if n := engine.InUseBytes(); n != 0 {
		t.Errorf("engine pools hold %d bytes after the jobs settled", n)
	}
}

// Every PFS byte has an owner. Distinct scans run one after another with a
// job table of 2 records, and after each job settles: the PFS holds exactly
// the scans of the retained records, each whole, and nothing under jobs/;
// the dataset table has no more entries than there are records; and the
// engine pools are back at their baseline.
func TestSoakDistinctScansReleased(t *testing.T) {
	const records, scans = 2, 24
	m := NewManager(Options{Workers: 1, testMaxJobs: records})
	defer shutdown(t, m)
	base := engine.InUseBytes()
	for i := 0; i < scans; i++ {
		v, err := m.Submit(Spec{Phantom: "sphere", NX: 8, NP: 8 + i, R: 1, C: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := waitState(t, m, v.ID, 30*time.Second); got.State != StateDone {
			t.Fatalf("scan %d: state %s: %s", i, got.State, got.Error)
		}
		requireNoJobOutput(t, m)
		want := map[string]int{} // dataset prefix → projections
		for _, r := range m.List() {
			rs, err := resolveSpec(r.Spec)
			if err != nil {
				t.Fatal(err)
			}
			want[rs.cfg.InputPrefix] = rs.spec.NP
		}
		got := map[string]int{}
		for _, p := range m.Store().List("ds/") {
			got[path.Dir(p)]++
		}
		if !maps.Equal(got, want) {
			t.Fatalf("scan %d: staged projections by dataset %v, want those of the retained records %v", i, got, want)
		}
		m.datasets.stageMu.Lock()
		entries := len(m.datasets.staged)
		m.datasets.stageMu.Unlock()
		if entries > records {
			t.Fatalf("scan %d: %d dataset entries for at most %d records", i, entries, records)
		}
		if n := engine.InUseBytes(); n != base {
			t.Fatalf("scan %d: engine pools hold %d B, %d B at the start", i, n, base)
		}
	}
}

// The dataset table on its own: two records' refs stage the scan once, the
// first unref keeps it, the last deletes every ds/<hash>/ object and the
// entry, and a ref after that stages afresh.
func TestDatasetsStageOnceDeleteWithLast(t *testing.T) {
	store := pfs.New(pfs.Config{})
	d := &datasets{store: store, staged: make(map[string]*dataset)}
	rs, err := resolveSpec(stagingSpec("sphere"))
	if err != nil {
		t.Fatal(err)
	}
	prefix := rs.cfg.InputPrefix
	record := func() *Job { return &Job{resolvedSpec: rs, scan: d.ref(prefix)} }
	stage := func(j *Job, render bool) {
		t.Helper()
		if rendered, err := d.stageDataset(context.Background(), j); err != nil || rendered != render {
			t.Fatalf("staged with rendered=%v, err %v; want rendered=%v", rendered, err, render)
		}
	}
	objects := func() int { return len(store.List("ds/")) }

	a, b := record(), record()
	if a.scan != b.scan {
		t.Fatal("two records of one scan hold two entries")
	}
	stage(a, true)
	stage(b, false)
	st := store.Stats()
	if objects() != rs.spec.NP || st.BytesWritten != st.Bytes {
		t.Fatalf("%d objects, %d B written for %d B held: want %d objects written once",
			objects(), st.BytesWritten, st.Bytes, rs.spec.NP)
	}
	d.unref(a)
	if objects() != rs.spec.NP {
		t.Fatalf("the first unref left %d of %d objects", objects(), rs.spec.NP)
	}
	d.unref(b)
	if objects() != 0 || len(d.staged) != 0 {
		t.Fatalf("the last unref left %d objects and %d entries", objects(), len(d.staged))
	}
	c := record()
	stage(c, true)
	if objects() != rs.spec.NP || store.Stats().BytesWritten != 2*st.BytesWritten {
		t.Fatalf("a ref after the last unref did not stage afresh: %d objects, %d B written",
			objects(), store.Stats().BytesWritten)
	}
	d.unref(c)
}
