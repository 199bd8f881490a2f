// Package pfs is the in-memory byte store that stands in for the parallel
// file system of the paper's testbed: staged projections and output slices
// are objects under string paths, held exactly.
// Every operation returns n / BW, the time n bytes take at the configured
// read or write bandwidth, and a throttled store really sleeps it — the seam
// tests use to stretch jobs. The paper's storage terms Tload and Tstore
// (Eqs. 8 and 16, ABCI's GPFS) are modelled in internal/perfmodel, not here.
package pfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Config sets the store's bandwidths.
type Config struct {
	ReadBW   float64 // read bandwidth, bytes/s (default 1e9)
	WriteBW  float64 // write bandwidth, bytes/s (default 1e9)
	Throttle bool    // if true, operations really sleep their duration
}

func (c Config) withDefaults() Config {
	if c.ReadBW <= 0 {
		c.ReadBW = 1e9
	}
	if c.WriteBW <= 0 {
		c.WriteBW = 1e9
	}
	return c
}

// Stats aggregates traffic counters.
type Stats struct {
	BytesRead    int64
	BytesWritten int64
	Reads        int64
	Writes       int64
	Objects      int
}

// PFS is the byte store. It is safe for concurrent use.
type PFS struct {
	cfg Config

	mu      sync.RWMutex
	objects map[string][]byte
	stats   Stats

	failAfterWrites int64 // fault injection: fail writes once the counter passes this (-1 = off)
}

// New creates an empty store with the given configuration (zero fields get
// safe defaults).
func New(cfg Config) *PFS {
	return &PFS{cfg: cfg.withDefaults(), objects: make(map[string][]byte), failAfterWrites: -1}
}

// FailAfterWrites arms fault injection: every Write after the next n
// successful ones returns an error (n = 0 fails immediately; negative
// disarms). Used by failure-propagation tests of the distributed framework.
func (p *PFS) FailAfterWrites(n int64) {
	p.mu.Lock()
	p.failAfterWrites = n
	p.mu.Unlock()
}

// duration is the time n bytes take at bandwidth bw.
func duration(n int, bw float64) time.Duration {
	return time.Duration(float64(n) / bw * float64(time.Second))
}

// Write stores a copy of data under path (overwriting any prior object) and
// returns its duration.
func (p *PFS) Write(path string, data []byte) (time.Duration, error) {
	cp := make([]byte, len(data))
	copy(cp, data)
	return p.keep(path, cp)
}

// keep is Write without the defensive copy: the store keeps data itself,
// so the caller must hand over a buffer nothing else references.
func (p *PFS) keep(path string, data []byte) (time.Duration, error) {
	if path == "" {
		return 0, fmt.Errorf("pfs: empty path")
	}
	d := duration(len(data), p.cfg.WriteBW)
	p.mu.Lock()
	if p.failAfterWrites >= 0 {
		if p.failAfterWrites == 0 {
			p.mu.Unlock()
			return 0, fmt.Errorf("pfs: injected write failure for %q", path)
		}
		p.failAfterWrites--
	}
	p.objects[path] = data
	p.stats.BytesWritten += int64(len(data))
	p.stats.Writes++
	p.mu.Unlock()
	if p.cfg.Throttle {
		time.Sleep(d)
	}
	return d, nil
}

// Peek accounts for a read of the object at path (stats, duration,
// throttling) and returns the stored payload itself. Safe to hand out
// because Write replaces payloads wholesale and never mutates them in
// place; callers must treat the slice as read-only.
func (p *PFS) Peek(path string) ([]byte, time.Duration, error) {
	p.mu.Lock()
	data, ok := p.objects[path]
	if ok {
		p.stats.BytesRead += int64(len(data))
		p.stats.Reads++
	}
	p.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("pfs: no object %q", path)
	}
	d := duration(len(data), p.cfg.ReadBW)
	if p.cfg.Throttle {
		time.Sleep(d)
	}
	return data, d, nil
}

// Exists reports whether an object is stored at path.
func (p *PFS) Exists(path string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, ok := p.objects[path]
	return ok
}

// Delete removes the object at path (no-op when absent).
func (p *PFS) Delete(path string) {
	p.mu.Lock()
	delete(p.objects, path)
	p.mu.Unlock()
}

// List returns the sorted paths with the given prefix.
func (p *PFS) List(prefix string) []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var out []string
	for k := range p.objects {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Stats returns a snapshot of the traffic counters.
func (p *PFS) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	s := p.stats
	s.Objects = len(p.objects)
	return s
}
