package service

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"ifdk/internal/core"
	"ifdk/internal/ct/geometry"
	"ifdk/pkg/volume"
)

func testCfg(nx int) core.Config {
	return core.Config{
		R: 2, C: 2,
		Geometry:    geometry.Default(2*nx, 2*nx, 2*nx, nx, nx, nx),
		InputPrefix: "ds/abc",
	}
}

// The key must ignore the per-job fields (output prefix, progress callback)
// and change with anything that changes the reconstruction.
func TestCacheKeyNormalization(t *testing.T) {
	a := testCfg(16)
	b := testCfg(16)
	b.OutputPrefix = "jobs/j1/out"
	b.Progress = func(int, int) {}
	if CacheKey(a) != CacheKey(b) {
		t.Error("output prefix / progress changed the key")
	}
	c := testCfg(16)
	c.InputPrefix = "ds/other"
	if CacheKey(a) == CacheKey(c) {
		t.Error("input prefix did not change the key")
	}
	d := testCfg(16)
	d.R, d.C = 4, 1
	if CacheKey(a) == CacheKey(d) {
		t.Error("grid shape did not change the key")
	}
	e := testCfg(32)
	if CacheKey(a) == CacheKey(e) {
		t.Error("geometry did not change the key")
	}
}

// CacheKey must refuse to hash a config it cannot canonically encode: a
// silent fallback would fork the keyspace across fleet members.
func TestCacheKeyPanicsOnNonFiniteGeometry(t *testing.T) {
	cfg := testCfg(16)
	cfg.Geometry.SAD = math.NaN()
	defer func() {
		if recover() == nil {
			t.Fatal("CacheKey accepted a non-encodable config")
		}
	}()
	CacheKey(cfg)
}

// entryOfSize builds an entry whose volume payload is nx³ voxels.
func entryOfSize(nx int) *Entry {
	return &Entry{Volume: volume.New(nx, nx, nx, volume.IMajor)}
}

func TestCacheHitMissAndLRU(t *testing.T) {
	// Budget fits two 16³ volumes (16 KiB each + overhead) but not three.
	c := NewCache(2*(16*16*16*4) + 2048)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", entryOfSize(16))
	c.Put("b", entryOfSize(16))
	if _, ok := c.Get("a"); !ok { // promotes a
		t.Fatal("miss on a")
	}
	c.Put("c", entryOfSize(16)) // over budget: evicts b (LRU)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite promotion")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes <= 0 || st.Bytes > st.MaxBytes {
		t.Fatalf("byte accounting out of range: %+v", st)
	}
}

// One large entry must evict many small ones — the scenario a count-based
// cap gets wrong in both directions.
func TestCacheEvictsByBytesNotCount(t *testing.T) {
	small := entryOfSize(8) // 2 KiB payload
	budget := 10*entrySize(small) + entrySize(entryOfSize(16))
	c := NewCache(budget)
	for _, k := range []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9"} {
		c.Put(k, entryOfSize(8))
	}
	if st := c.Stats(); st.Entries != 10 {
		t.Fatalf("expected all 10 small entries resident, got %+v", st)
	}
	// A 16³ entry fits the remaining headroom without evicting anything.
	c.Put("big", entryOfSize(16))
	if st := c.Stats(); st.Entries != 11 {
		t.Fatalf("big entry should coexist: %+v", st)
	}
	// A 20³ entry (~32 KiB, within budget but larger than the remaining
	// headroom) must displace older entries, count be damned.
	c.Put("huge", entryOfSize(20))
	st := c.Stats()
	if _, ok := c.Get("huge"); !ok {
		t.Fatal("huge entry not cached")
	}
	if st.Entries >= 11 {
		t.Fatalf("no eviction happened: %+v", st)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("budget exceeded: %+v", st)
	}
}

// An entry larger than the whole budget is not cached, and replacing an
// existing key with such an entry removes the stale value.
func TestCacheRejectsOversizedEntry(t *testing.T) {
	small := entryOfSize(8)
	c := NewCache(entrySize(small) + 1)
	c.Put("a", small)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("small entry not cached")
	}
	c.Put("a", entryOfSize(32)) // oversized replacement
	if _, ok := c.Get("a"); ok {
		t.Fatal("oversized replacement left a stale entry readable")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats after oversized replace = %+v", st)
	}
}

// Replacing an entry in place must adjust the byte account.
func TestCacheReplaceAdjustsBytes(t *testing.T) {
	c := NewCache(1 << 20)
	c.Put("a", entryOfSize(8))
	before := c.Stats().Bytes
	c.Put("a", entryOfSize(16))
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("replace duplicated the entry: %+v", st)
	}
	if st.Bytes <= before {
		t.Fatalf("bytes not adjusted on replace: %d -> %d", before, st.Bytes)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(-1)
	c.Put("a", &Entry{})
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache stored an entry")
	}
}

// Through the Manager, the cache budget bounds every result byte retained:
// with room for one 32³ entry and two job records, fifteen distinct 32³
// jobs leave the cache within its budget and nothing on the PFS but the
// staged datasets and the retained jobs' own namespaces. An evicted entry
// is dropped, not written anywhere else.
func TestManagerCacheBudgetBoundsRetainedResults(t *testing.T) {
	m, err := OpenManager(Options{Workers: 1, MaxJobs: 2,
		CacheBytes: entrySize(entryOfSize(32))})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, m)
	for _, ph := range []string{"shepplogan", "sphere", "industrial"} {
		for _, w := range []string{"ram-lak", "shepp-logan", "cosine", "hamming", "hann"} {
			v, err := m.Submit(Spec{Phantom: ph, NX: 32, R: 1, C: 1, Window: w})
			if err != nil {
				t.Fatal(err)
			}
			if got := waitState(t, m, v.ID, 30*time.Second); got.State != StateDone {
				t.Fatalf("%s/%s: %s (%s)", ph, w, got.State, got.Error)
			}
		}
	}
	if st := m.cache.Stats(); st.Bytes > st.MaxBytes {
		t.Fatalf("cache holds %d B over its %d B budget", st.Bytes, st.MaxBytes)
	}
	allowed := []string{"ds/"}
	for _, v := range m.List() {
		allowed = append(allowed, "jobs/"+v.ID+"/")
	}
	var stray []string
	for _, path := range m.Store().List("") {
		if !slices.ContainsFunc(allowed, func(p string) bool { return strings.HasPrefix(path, p) }) {
			stray = append(stray, path)
		}
	}
	if len(stray) > 0 {
		t.Fatalf("%d PFS objects outside %v, first %s", len(stray), allowed, stray[0])
	}
}
