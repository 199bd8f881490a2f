package service

import (
	"container/list"
	"fmt"
	"sync"

	"ifdk/internal/core"
	"ifdk/pkg/volume"
)

// Entry is one cached reconstruction result: the assembled volume plus the
// timings of the run that produced it. Entries are immutable once stored
// and may be shared by many jobs.
type Entry struct {
	Volume   *volume.Volume
	Times    core.StageTimes
	RelRMSE  float64 // serial-reference error, when the producing job verified
	Verified bool
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
// It is the only holder of settled results (a job record keeps its keys),
// so the budget bounds every settled volume the daemon serves. An evicted
// volume becomes garbage, never a pool buffer: a /stream may still hold it.
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

// settled is Get for reading a settled job's result or preview back. It
// counts no hit or miss (the counters are admission's and the preview
// tier's). A miss — evicted, cache disabled, or replayed from the journal —
// is nil, and every reader answers it as terminal.
func (c *Cache) settled(key string) *volume.Volume {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).entry.Volume
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

// slice returns a view of plane z of j's output, with the job's state. vol
// is the output volume the caller holds, nil until it has one; slice
// resolves it — the job's volume while it runs, its cached result once done
// — and returns it for the caller to keep. The view is nil until plane z is
// handed over, and for good once the job settles without a reachable result.
func (m *Manager) slice(j *Job, z int, vol *volume.Volume) (*volume.Image, *volume.Volume, State) {
	j.mu.Lock()
	st, ready := j.state, j.state == StateDone || j.have != nil && j.have[z]
	if vol == nil {
		vol = j.out
	}
	j.mu.Unlock()
	if vol == nil && st == StateDone {
		vol = m.cache.settled(j.cacheKey)
	}
	if vol == nil || !ready {
		return nil, vol, st
	}
	return planeZ(vol, z), vol, st
}

// planeZ is a view of plane z of an i-major volume, whose planes are
// contiguous: every result volume is laid out so.
func planeZ(v *volume.Volume, z int) *volume.Image {
	n := v.Nx * v.Ny
	return &volume.Image{W: v.Nx, H: v.Ny, Data: v.Data[z*n : (z+1)*n]}
}

// Volume returns a done job's volume while the result cache holds it.
func (m *Manager) Volume(id string) (*volume.Volume, error) {
	j, ok := m.job(id)
	if !ok {
		return nil, fmt.Errorf("job %q: %w", id, ErrNotFound)
	}
	if vol := m.cache.settled(j.cacheKey); vol != nil && j.State() == StateDone {
		return vol, nil
	}
	return nil, fmt.Errorf("service: job %s has no result (state %s)", id, j.State())
}
