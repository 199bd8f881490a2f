// Package pfs simulates the parallel file system of the paper's testbed
// (ABCI's GPFS): a striped object store with configurable aggregate read and
// write bandwidths. Payloads are held in memory (functionally exact), while
// every operation returns the simulated wall time it would take on the
// modelled storage — the Tload and Tstore terms of the performance model
// (Eqs. 8 and 16).
//
// Objects are striped round-robin across Targets in StripeSize chunks. An
// object that spans fewer stripes than there are targets cannot use the full
// aggregate bandwidth — reproducing the paper's observation that volume
// slices not tuned to the stripe size leave some Tstore on the table
// (Sec. 5.3.3).
package pfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Config describes the modelled storage system.
type Config struct {
	ReadBW     float64       // aggregate read bandwidth, bytes/s
	WriteBW    float64       // aggregate write bandwidth, bytes/s
	Targets    int           // number of storage targets (stripes)
	StripeSize int           // stripe chunk in bytes
	Latency    time.Duration // fixed per-operation latency
	Throttle   bool          // if true, operations really sleep their simulated time
}

// ABCIConfig returns a configuration calibrated to the paper's measured
// GPFS numbers: 28.5 GB/s sequential write (Sec. 5.3.3) and a comparable
// read bandwidth.
func ABCIConfig() Config {
	return Config{
		ReadBW:     60e9,
		WriteBW:    28.5e9,
		Targets:    64,
		StripeSize: 1 << 20,
		Latency:    300 * time.Microsecond,
	}
}

func (c Config) withDefaults() Config {
	if c.ReadBW <= 0 {
		c.ReadBW = 1e9
	}
	if c.WriteBW <= 0 {
		c.WriteBW = 1e9
	}
	if c.Targets <= 0 {
		c.Targets = 1
	}
	if c.StripeSize <= 0 {
		c.StripeSize = 1 << 20
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
	SimReadTime  time.Duration
	SimWriteTime time.Duration
}

// PFS is a simulated parallel file system. It is safe for concurrent use.
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

// Config returns the (defaulted) configuration.
func (p *PFS) Config() Config { return p.cfg }

// simDuration models one transfer: per-op latency plus the time for the
// most-loaded target to move its share of the stripes at BW/Targets.
func (p *PFS) simDuration(n int, bw float64) time.Duration {
	if n == 0 {
		return p.cfg.Latency
	}
	stripes := (n + p.cfg.StripeSize - 1) / p.cfg.StripeSize
	used := stripes
	if used > p.cfg.Targets {
		used = p.cfg.Targets
	}
	// Stripes are dealt round-robin; the most-loaded target holds
	// ceil(stripes/Targets) of them.
	perTarget := (stripes + p.cfg.Targets - 1) / p.cfg.Targets
	bytesOnWorst := perTarget * p.cfg.StripeSize
	if bytesOnWorst > n {
		bytesOnWorst = n
	}
	targetBW := bw / float64(p.cfg.Targets)
	return p.cfg.Latency + time.Duration(float64(bytesOnWorst)/targetBW*float64(time.Second))
}

// Write stores data under path (overwriting any prior object) and returns
// the simulated transfer time.
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
	d := p.simDuration(len(data), p.cfg.WriteBW)
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
	p.stats.SimWriteTime += d
	p.mu.Unlock()
	if p.cfg.Throttle {
		time.Sleep(d)
	}
	return d, nil
}

// Read returns a copy of the object at path and the simulated transfer
// time.
func (p *PFS) Read(path string) ([]byte, time.Duration, error) {
	data, d, err := p.Peek(path)
	if err != nil {
		return nil, 0, err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, d, nil
}

// Peek is Read without the copy: it accounts for the read (stats,
// simulated time, throttling) and returns the stored payload itself. Safe
// to hand out because Write replaces payloads wholesale and never mutates
// them in place; callers must treat the slice as read-only.
func (p *PFS) Peek(path string) ([]byte, time.Duration, error) {
	p.mu.Lock()
	data, ok := p.objects[path]
	var d time.Duration
	if ok {
		d = p.simDuration(len(data), p.cfg.ReadBW)
		p.stats.BytesRead += int64(len(data))
		p.stats.Reads++
		p.stats.SimReadTime += d
	}
	p.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("pfs: no object %q", path)
	}
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

// Size returns the byte size of the object at path, or -1 when absent.
func (p *PFS) Size(path string) int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if data, ok := p.objects[path]; ok {
		return len(data)
	}
	return -1
}

// Stats returns a snapshot of the traffic counters.
func (p *PFS) Stats() Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	s := p.stats
	s.Objects = len(p.objects)
	return s
}
