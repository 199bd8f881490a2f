package service

import (
	"math"
	"testing"

	"ifdk/internal/hpc/pfs"
	"ifdk/pkg/volume"
)

// spillCache builds a cache with the given byte budget backed by a fresh
// in-memory PFS, the way OpenManager wires it.
func spillCache(maxBytes int64) (*Cache, *pfs.PFS) {
	store := pfs.New(pfs.Config{})
	c := NewCache(maxBytes)
	c.enableSpill(store)
	return c, store
}

// patternedEntry builds an entry whose voxels carry a recognizable pattern,
// so a spill round-trip can be checked bit-for-bit.
func patternedEntry(nx int, seed float32) *Entry {
	v := volume.New(nx, nx, nx, volume.IMajor)
	for n := range v.Data {
		v.Data[n] = seed + float32(n%251)
	}
	return &Entry{Volume: v, BytesSent: 1234, RelRMSE: 0.5, Verified: true}
}

// An entry evicted under byte pressure must be written to the PFS and come
// back bit-exact through Get, which readmits it to memory.
func TestCacheSpillOnEvictAndReadmit(t *testing.T) {
	// Budget fits one 16³ entry but not two.
	c, store := spillCache(entrySize(entryOfSize(16)) + 256)
	a := patternedEntry(16, 1)
	c.Put("a", a)
	c.Put("b", patternedEntry(16, 2)) // evicts a → spill tier

	if st := c.Stats(); st.Spills != 1 || st.SpillErrors != 0 {
		t.Fatalf("eviction did not spill exactly once: %+v", st)
	}
	if !store.Exists(spillMetaPath("a")) {
		t.Fatal("spill meta object missing from the PFS")
	}

	got, ok := c.Get("a")
	if !ok {
		t.Fatal("evicted entry not served from the spill tier")
	}
	if got.BytesSent != a.BytesSent || got.RelRMSE != a.RelRMSE || !got.Verified {
		t.Fatalf("spill dropped metadata: %+v", got)
	}
	if len(got.Volume.Data) != len(a.Volume.Data) {
		t.Fatalf("volume shape changed across spill: %d voxels", len(got.Volume.Data))
	}
	for n := range a.Volume.Data {
		if got.Volume.Data[n] != a.Volume.Data[n] {
			t.Fatalf("voxel %d differs after spill round-trip: %v != %v",
				n, got.Volume.Data[n], a.Volume.Data[n])
		}
	}
	st := c.Stats()
	if st.SpillHits != 1 {
		t.Fatalf("SpillHits = %d, want 1: %+v", st.SpillHits, st)
	}
	// The readmit displaced b; a second Get must now be a plain memory hit.
	hitsBefore := st.Hits
	if _, ok := c.Get("a"); !ok {
		t.Fatal("readmitted entry missing from memory")
	}
	st = c.Stats()
	if st.Hits != hitsBefore+1 || st.SpillHits != 1 {
		t.Fatalf("readmitted Get not served from memory: %+v", st)
	}
}

// An entry larger than the whole budget skips memory and spills directly,
// and Get still serves it (without ever readmitting it to memory).
func TestCacheOversizeEntrySpillsDirectly(t *testing.T) {
	c, store := spillCache(entrySize(entryOfSize(8)) + 1)
	big := patternedEntry(16, 3)
	c.Put("big", big)

	st := c.Stats()
	if st.Entries != 0 {
		t.Fatalf("oversize entry held in memory: %+v", st)
	}
	if st.Spills != 1 {
		t.Fatalf("oversize entry not spilled: %+v", st)
	}
	if !store.Exists(spillMetaPath("big")) {
		t.Fatal("spill meta object missing from the PFS")
	}
	got, ok := c.Get("big")
	if !ok {
		t.Fatal("oversize spilled entry not served")
	}
	if got.Volume.Data[7] != big.Volume.Data[7] {
		t.Fatal("oversize spill corrupted the payload")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("oversize entry readmitted past the budget: %+v", st)
	}
}

// A readmitted entry already has a durable copy; evicting it again must not
// rewrite the spill objects.
func TestCacheSpilledFlagSkipsRewrite(t *testing.T) {
	c, _ := spillCache(entrySize(entryOfSize(16)) + 256)
	c.Put("a", patternedEntry(16, 1))
	c.Put("b", patternedEntry(16, 2)) // evicts a → spill #1
	if _, ok := c.Get("a"); !ok {     // spill read, readmit (evicts b → spill #2)
		t.Fatal("spill read failed")
	}
	c.Put("c", patternedEntry(16, 4)) // evicts a again — already durable
	st := c.Stats()
	if st.Spills != 2 {
		t.Fatalf("re-evicting a readmitted entry rewrote its spill: %+v", st)
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("twice-evicted entry lost despite durable copy")
	}
}

// Without a backing store, evictions drop entries — the pre-spill behaviour
// — and no spill counters move.
func TestCacheNoStoreDropsOnEvict(t *testing.T) {
	c := NewCache(entrySize(entryOfSize(16)) + 256)
	c.Put("a", patternedEntry(16, 1))
	c.Put("b", patternedEntry(16, 2))
	if _, ok := c.Get("a"); ok {
		t.Fatal("evicted entry survived without a spill store")
	}
	st := c.Stats()
	if st.Spills != 0 || st.SpillHits != 0 || st.SpillBytes != 0 {
		t.Fatalf("spill counters moved without a store: %+v", st)
	}
}

// A disabled cache must stay inert even with a store attached: Get must not
// consult the spill tier it can never have written.
func TestCacheDisabledSkipsSpillTier(t *testing.T) {
	store := pfs.New(pfs.Config{})
	c := NewCache(-1)
	c.enableSpill(store)
	c.Put("a", patternedEntry(8, 1))
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache served an entry")
	}
	if st := c.Stats(); st.Spills != 0 {
		t.Fatalf("disabled cache spilled: %+v", st)
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

// A spill meta object whose dimensions no job could have produced — absent,
// non-positive, or past the admission limit — is a counted spill error and
// a miss, not a panic in volume.New or an allocation of its product.
func TestCacheSpillRejectsBadDimensions(t *testing.T) {
	for _, meta := range []string{
		`{}`,
		`{"nx":-1,"ny":8,"nz":8}`,
		`{"nx":8,"ny":0,"nz":8}`,
		`{"nx":8,"ny":8,"nz":-8}`,
		`{"nx":257,"ny":8,"nz":8}`,
		`{"nx":100000,"ny":100000,"nz":100000}`,
		`{"nx":9223372036854775807,"ny":2,"nz":2}`,
	} {
		c, store := spillCache(entrySize(entryOfSize(8)) + 256)
		if _, err := store.Write(spillMetaPath("k"), []byte(meta)); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get("k"); ok {
			t.Fatalf("meta %s: served an entry", meta)
		}
		if st := c.Stats(); st.SpillErrors != 1 || st.Misses != 1 {
			t.Fatalf("meta %s: want one spill error and one miss, got %+v", meta, st)
		}
	}
}

// FuzzReadSpill: whatever bytes the meta object of a real 8³ spill holds,
// Get never panics. It serves an entry only when the meta names dimensions
// within the admission limit whose slices all decode to that shape —
// and then exactly those dimensions and the spilled voxels — and otherwise
// counts a spill error and misses.
func FuzzReadSpill(f *testing.F) {
	f.Fuzz(func(t *testing.T, meta []byte) {
		const nx = 8
		c, store := spillCache(entrySize(entryOfSize(nx)) + 256)
		want := patternedEntry(nx, 3)
		c.spill("k", want, entrySize(want))
		if _, err := store.Write(spillMetaPath("k"), meta); err != nil {
			t.Fatal(err)
		}
		got, ok := c.Get("k")
		st := c.Stats()
		if !ok {
			if st.SpillErrors != 1 {
				t.Fatalf("miss without a spill error: %+v", st)
			}
			return
		}
		v := got.Volume
		if v.Nx != nx || v.Ny != nx || v.Nz < 1 || v.Nz > maxNX {
			t.Fatalf("served a %dx%dx%d volume from %dx%dx%d slices", v.Nx, v.Ny, v.Nz, nx, nx, nx)
		}
		for n, x := range v.Data {
			if x != want.Volume.Data[n] {
				t.Fatalf("voxel %d = %v, spilled %v", n, x, want.Volume.Data[n])
			}
		}
	})
}
