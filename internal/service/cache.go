package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"ifdk/internal/core"
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
	rmse, err := volume.RelRMSE(ref, e.Volume)
	if err != nil {
		return err
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
// versions — the key shards the fleet (rendezvous hashing) and survives in
// the write-ahead journal via the Spec. json.Marshal of the sanitized
// Config is canonical (struct order is declaration order); it can only fail
// on non-finite geometry floats, which admission never produces, so rather
// than hashing some fallback representation that would silently fork the
// keyspace (the old %+v fallback embedded function pointer addresses), an
// unencodable config panics loudly.
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
// lets a handful of large ones blow the heap. An evicted entry is dropped,
// and an entry larger than the whole budget is not cached, so the budget
// bounds every byte the cache retains.
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
	hits     int64
	misses   int64
}

type cacheItem struct {
	key   string
	entry *Entry
	size  int64
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

// Get returns the entry for key, promoting it to most recently used.
func (c *Cache) Get(key string) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheItem).entry, true
}

// Put stores an entry, dropping least recently used entries until the byte
// budget holds. An entry that alone exceeds the budget is not cached, and
// any older value under its key is dropped with it.
func (c *Cache) Put(key string, e *Entry) {
	if c.maxBytes < 1 {
		return
	}
	size := entrySize(e)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
	if size > c.maxBytes {
		return
	}
	c.items[key] = c.ll.PushFront(&cacheItem{key: key, entry: e, size: size})
	c.bytes += size
	for c.bytes > c.maxBytes {
		c.removeLocked(c.ll.Back())
	}
}

func (c *Cache) removeLocked(el *list.Element) {
	it := el.Value.(*cacheItem)
	c.ll.Remove(el)
	delete(c.items, it.key)
	c.bytes -= it.size
}

// Stats returns a snapshot of the hit/miss counters and occupancy. A
// disabled cache (negative budget) reports MaxBytes 0 so consumers never
// see the sentinel as a size.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.ll.Len(),
		Bytes: c.bytes, MaxBytes: max(c.maxBytes, 0)}
}
