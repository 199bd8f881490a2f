package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"ifdk/internal/core"
	"ifdk/internal/hpc/pfs"
	"ifdk/pkg/volume"
)

// Entry is one cached reconstruction result: the assembled volume plus the
// timings of the run that produced it. Entries are immutable once stored
// and may be shared by many jobs.
type Entry struct {
	Volume    *volume.Volume
	Times     core.StageTimes
	BytesSent int64
	RelRMSE   float64 // serial-reference error, when the producing job verified
	Verified  bool
}

// verify marks the entry verified against ref, recording the RMSE of its
// volume relative to ref's peak magnitude.
func (e *Entry) verify(ref *volume.Volume) error {
	rmse, err := volume.RMSE(ref, e.Volume)
	if err != nil {
		return err
	}
	s := ref.Summarize()
	scale := math.Max(math.Abs(float64(s.Min)), math.Abs(float64(s.Max)))
	if scale > 0 {
		rmse /= scale
	}
	e.RelRMSE = rmse
	e.Verified = true
	return nil
}

// CacheKey content-addresses a reconstruction: the SHA-256 of the canonical
// JSON of the core.Config with the per-job fields (output prefix, progress
// and the other run-time callbacks) zeroed, so two jobs asking for the same
// volume from the same input data map to the same key regardless of where
// they write or who watches them. The input prefix is part of the Config
// and is itself content-derived by the manager (a hash of phantom +
// geometry), making the whole key a content hash of "what is reconstructed
// from which data".
//
// The encoding must be deterministic across processes, restarts and Go
// versions — the key shards the fleet (rendezvous hashing), names PFS spill
// objects and survives in the write-ahead journal via the Spec. json.Marshal
// of the sanitized Config is canonical (struct order is declaration order);
// it can only fail on non-finite geometry floats, which admission never
// produces, so rather than hashing some fallback representation that would
// silently fork the keyspace (the old %+v fallback embedded function
// pointer addresses), an unencodable config panics loudly.
func CacheKey(cfg core.Config) string {
	cfg.OutputPrefix = ""
	// The callbacks are declared `json:"-"` so Marshal ignores them, but
	// zero them anyway: no accidental representation of a per-job field may
	// ever reach the hash.
	cfg.Progress = nil
	cfg.SliceWritten = nil
	blob, err := json.Marshal(cfg)
	if err != nil {
		panic(fmt.Sprintf("service: CacheKey: config is not canonically encodable "+
			"(non-finite geometry?): %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// Cache is a byte-budgeted LRU over reconstruction results. It is the
// serving-layer realization of "instant": a repeated identical request
// costs one map lookup instead of a full pipeline run.
//
// Eviction is by total payload bytes, not entry count: entries are whole
// volumes whose sizes span orders of magnitude (a 64³ preview is 1 MiB, a
// 1024³ render is 4 GiB), so a count cap either starves small workloads or
// lets a handful of large ones blow the heap.
//
// Spill-on-evict: with a backing store attached (enableSpill), an entry
// evicted under byte pressure — including one that alone exceeds the whole
// budget — is written to the PFS instead of dropped, and Get falls through
// to a PFS read that readmits the entry. Hits are counted separately
// (Hits = in-memory, SpillHits = served from the spill tier), so the
// effective hit rate of each tier is observable. Spill objects live under
// spill/<key>/ next to the job namespaces; the meta object is written
// last, as the commit point, so a reader never sees a partial spill.
//
// Cached volumes are never returned to the engine buffer pools, even on
// eviction: entries escape to HTTP handlers and job records, and the cache
// cannot prove no reader remains. They become ordinary garbage instead.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	hits     int64 // in-memory hits
	misses   int64 // neither in memory nor in the spill tier

	store       *pfs.PFS // spill tier; nil = evictions drop (pre-spill behaviour)
	spills      int64    // evictions written to the spill tier
	spillHits   int64    // Gets served by spill read + readmit
	spillBytes  int64    // cumulative payload bytes spilled
	spillErrors int64    // spill writes/reads that failed
}

type cacheItem struct {
	key     string
	entry   *Entry
	size    int64
	spilled bool // a durable spill copy exists; re-eviction skips the rewrite
}

// entrySize is the retained footprint of one entry: the volume payload plus
// a fixed overhead for the Entry/list/map bookkeeping.
func entrySize(e *Entry) int64 {
	const overhead = 512
	if e == nil || e.Volume == nil {
		return overhead
	}
	return overhead + e.Volume.Bytes()
}

// NewCache creates an LRU holding at most maxBytes of results; maxBytes < 1
// disables caching (every Get misses, Put is a no-op).
func NewCache(maxBytes int64) *Cache {
	return &Cache{maxBytes: maxBytes, ll: list.New(), items: make(map[string]*list.Element)}
}

// enableSpill attaches the PFS the cache spills evicted entries to. Called
// once at manager construction, before any concurrent use.
func (c *Cache) enableSpill(store *pfs.PFS) { c.store = store }

// Get returns the entry for key: from memory (promoting it to most
// recently used), or from the PFS spill tier — readmitting it — when it
// was evicted under byte pressure.
func (c *Cache) Get(key string) (*Entry, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		e := el.Value.(*cacheItem).entry
		c.mu.Unlock()
		return e, true
	}
	c.mu.Unlock()
	if c.store != nil && c.maxBytes >= 1 {
		if e, ok := c.readSpill(key); ok {
			c.mu.Lock()
			c.spillHits++
			c.mu.Unlock()
			c.put(key, e, true)
			return e, true
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// Put stores an entry, evicting least recently used entries until the byte
// budget holds; evicted entries spill to the PFS when a store is attached.
// An entry that alone exceeds the budget skips memory and spills directly.
func (c *Cache) Put(key string, e *Entry) { c.put(key, e, false) }

func (c *Cache) put(key string, e *Entry, spilled bool) {
	if c.maxBytes < 1 {
		return
	}
	size := entrySize(e)
	var victims []*cacheItem
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		// Replace in place: the outgoing entry is superseded (same content
		// key, possibly upgraded metadata), not evicted — no spill.
		c.removeLocked(el)
	}
	if size > c.maxBytes {
		c.mu.Unlock()
		if !spilled {
			c.spill(key, e, size)
		}
		return
	}
	c.items[key] = c.ll.PushFront(&cacheItem{key: key, entry: e, size: size, spilled: spilled})
	c.bytes += size
	for c.bytes > c.maxBytes {
		victims = append(victims, c.removeLocked(c.ll.Back()))
	}
	c.mu.Unlock()
	// Spill outside the lock: PFS writes model real storage latency and
	// must not stall every concurrent cache lookup.
	for _, it := range victims {
		if !it.spilled {
			c.spill(it.key, it.entry, it.size)
		}
	}
}

func (c *Cache) removeLocked(el *list.Element) *cacheItem {
	it := el.Value.(*cacheItem)
	c.ll.Remove(el)
	delete(c.items, it.key)
	c.bytes -= it.size
	return it
}

// spillPrefix is the PFS namespace of one spilled entry's slice objects.
func spillPrefix(key string) string { return "spill/" + key }

// spillMetaPath is the entry's commit object: written last on spill, read
// first on load.
func spillMetaPath(key string) string { return spillPrefix(key) + "/meta.json" }

// spillMeta is the JSON sidecar carrying everything but the voxels.
type spillMeta struct {
	NX        int             `json:"nx"`
	NY        int             `json:"ny"`
	NZ        int             `json:"nz"`
	Times     core.StageTimes `json:"times"`
	BytesSent int64           `json:"bytes_sent"`
	RelRMSE   float64         `json:"rel_rmse"`
	Verified  bool            `json:"verified"`
}

// spill writes one evicted entry to the PFS: slices first, meta last (the
// commit point). Failures are counted and the entry is simply lost, the
// pre-spill behaviour.
func (c *Cache) spill(key string, e *Entry, size int64) {
	if c.store == nil || e == nil || e.Volume == nil {
		return
	}
	v := e.Volume
	meta := spillMeta{NX: v.Nx, NY: v.Ny, NZ: v.Nz,
		Times: e.Times, BytesSent: e.BytesSent, RelRMSE: e.RelRMSE, Verified: e.Verified}
	blob, err := json.Marshal(meta)
	if err == nil {
		if _, err = c.store.WriteVolumeSlices(spillPrefix(key), v); err == nil {
			_, err = c.store.Write(spillMetaPath(key), blob)
		}
	}
	c.mu.Lock()
	if err != nil {
		c.spillErrors++
	} else {
		c.spills++
		c.spillBytes += size
	}
	c.mu.Unlock()
}

// validDims reports whether the meta names a volume a job could have
// produced: every dimension within 1…maxNX, the admission limit of the
// spec's grid. Anything else is a corrupt or foreign object, which must
// neither reach volume.New (which panics on a non-positive dimension) nor
// allocate past what admission would allow before its first slice is read.
func (m spillMeta) validDims() bool {
	for _, d := range [...]int{m.NX, m.NY, m.NZ} {
		if d < 1 || d > maxNX {
			return false
		}
	}
	return true
}

// readSpill loads a spilled entry back from the PFS; a missing meta object
// is an ordinary miss, an unreadable one or one whose dimensions are out of
// range a counted spill error and a miss.
func (c *Cache) readSpill(key string) (*Entry, bool) {
	blob, _, err := c.store.Read(spillMetaPath(key))
	if err != nil {
		return nil, false
	}
	var meta spillMeta
	if err := json.Unmarshal(blob, &meta); err != nil || !meta.validDims() {
		c.mu.Lock()
		c.spillErrors++
		c.mu.Unlock()
		return nil, false
	}
	v, _, err := c.store.ReadVolumeSlices(spillPrefix(key), meta.NX, meta.NY, meta.NZ)
	if err != nil {
		c.mu.Lock()
		c.spillErrors++
		c.mu.Unlock()
		return nil, false
	}
	return &Entry{Volume: v, Times: meta.Times, BytesSent: meta.BytesSent,
		RelRMSE: meta.RelRMSE, Verified: meta.Verified}, true
}

// Stats returns a snapshot of the hit/miss counters and occupancy. A
// disabled cache (negative budget) reports MaxBytes 0 so consumers never
// see the sentinel as a size.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.ll.Len(),
		Bytes: c.bytes, MaxBytes: max(c.maxBytes, 0),
		Spills: c.spills, SpillHits: c.spillHits,
		SpillBytes: c.spillBytes, SpillErrors: c.spillErrors}
}
