package engine

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"ifdk/pkg/volume"
)

// Buffer pools for the compute plane.
//
// Acquire/release contract (followed by all pipeline stages):
//
//   - Acquire returns a buffer of exactly the requested shape. Image and
//     Buf contents are UNDEFINED (stages overwrite every element before
//     reading); Volume contents are zeroed, because back-projection
//     accumulates into its destination.
//   - The acquiring stage owns the buffer until it either releases it or
//     hands it to the next pipeline stage, which then owns it. Exactly one
//     owner releases; double release is a caller bug (it would alias two
//     future acquisitions).
//   - A Buf may be shared by several holders (the column AllGather hands
//     every peer the same filtered projection). A holder that gives the
//     buffer to one more holder calls Retain(1) first — once per extra
//     holder, before the hand-off. Once shared, its contents are read-only
//     for everyone. Every holder releases exactly once; the last Release
//     returns the buffer to its pool (and takes it off the in-use gauge).
//   - Release is optional for correctness — a buffer that escapes (e.g. a
//     volume stored in the result cache and handed to HTTP clients) is
//     simply never released and becomes ordinary garbage. Only buffers that
//     provably do not escape go back.
//   - Release accepts ONLY buffers that came from Acquire. Donating a
//     foreign buffer would skew the in-use byte gauges (see InUseBytes)
//     that pool-aware admission and /v1/metrics rely on.
//   - Pools are process-global and safe for concurrent use; sync.Pool
//     backing means idle buffers are reclaimed by the garbage collector
//     instead of pinning memory forever.
//
// The pools check the contract at run time. A leak, a double release and a
// foreign donation all unbalance InUseBytes, which the pipeline's tests
// assert returns to its baseline. Releasing a Buf that is already back in
// its pool panics. Under `go test`, Release poisons Buf and Image data (see
// poison), so a read after release breaks the bit-identity tests.

// ImagePool pools *volume.Image by (W, H). The zero value is ready to use.
type ImagePool struct {
	mu    sync.Mutex
	byWH  map[[2]int]*sync.Pool
	inUse atomic.Int64 // bytes currently acquired and not yet released
}

// Images is the shared pool for projection-sized images: PFS decode,
// in-place filtering and transpose buffers all draw from here.
var Images ImagePool

func (p *ImagePool) pool(w, h int) *sync.Pool {
	key := [2]int{w, h}
	p.mu.Lock()
	sp, ok := p.byWH[key]
	if !ok {
		if p.byWH == nil {
			p.byWH = make(map[[2]int]*sync.Pool)
		}
		sp = &sync.Pool{New: func() any { return volume.NewImage(w, h) }}
		p.byWH[key] = sp
	}
	p.mu.Unlock()
	return sp
}

// Acquire returns a W×H image with undefined contents.
func (p *ImagePool) Acquire(w, h int) *volume.Image {
	p.inUse.Add(4 * int64(w) * int64(h))
	return p.pool(w, h).Get().(*volume.Image)
}

// Release returns an image to the pool. The caller must not touch it again.
func (p *ImagePool) Release(img *volume.Image) {
	if img == nil {
		return
	}
	p.inUse.Add(-4 * int64(img.W) * int64(img.H))
	poison(img.Data)
	p.pool(img.W, img.H).Put(img)
}

// InUseBytes returns the payload bytes currently checked out of the pool
// (acquired and not yet released). The rare buffer that escapes — acquired
// but intentionally never released — stays counted: the gauge tracks where
// working-set bytes went, which is what pool-aware admission wants to see.
func (p *ImagePool) InUseBytes() int64 { return p.inUse.Load() }

// VolumePool pools *volume.Volume by (Nx, Ny, Nz, Layout). The zero value
// is ready to use.
type VolumePool struct {
	mu    sync.Mutex
	byDim map[volKey]*sync.Pool
	inUse atomic.Int64 // bytes currently acquired and not yet released
}

type volKey struct {
	nx, ny, nz int
	layout     volume.Layout
}

// Volumes is the shared pool for working volumes: per-rank slab pairs and
// intermediate k-major reconstructions.
var Volumes VolumePool

func (p *VolumePool) pool(nx, ny, nz int, layout volume.Layout) *sync.Pool {
	key := volKey{nx, ny, nz, layout}
	p.mu.Lock()
	sp, ok := p.byDim[key]
	if !ok {
		if p.byDim == nil {
			p.byDim = make(map[volKey]*sync.Pool)
		}
		sp = &sync.Pool{New: func() any { return volume.New(nx, ny, nz, layout) }}
		p.byDim[key] = sp
	}
	p.mu.Unlock()
	return sp
}

// Acquire returns a zeroed volume (back-projection accumulates, so reused
// slabs must not leak a previous job's voxels).
func (p *VolumePool) Acquire(nx, ny, nz int, layout volume.Layout) *volume.Volume {
	p.inUse.Add(4 * int64(nx) * int64(ny) * int64(nz))
	v := p.pool(nx, ny, nz, layout).Get().(*volume.Volume)
	clear(v.Data)
	return v
}

// Release returns a volume to the pool. The caller must not touch it again.
func (p *VolumePool) Release(v *volume.Volume) {
	if v == nil {
		return
	}
	p.inUse.Add(-4 * int64(v.Nx) * int64(v.Ny) * int64(v.Nz))
	p.pool(v.Nx, v.Ny, v.Nz, v.Layout).Put(v)
}

// InUseBytes returns the payload bytes currently checked out of the pool;
// see ImagePool.InUseBytes.
func (p *VolumePool) InUseBytes() int64 { return p.inUse.Load() }

// InUseBytes sums the bytes currently checked out of the shared image,
// volume and block pools — the live working set of every in-flight
// reconstruction. The service exposes it via /v1/metrics next to the
// *estimated* in-flight bytes its admission accounting carries, so the two
// can be compared.
func InUseBytes() int64 {
	return Images.InUseBytes() + Volumes.InUseBytes() + Blocks.InUseBytes()
}

// Blocks is the shared pool for float32 payload blocks that move between
// ranks: filtered projections on their way through the column AllGather
// (shared by reference, see Buf.Retain) and the row Reduce's accumulators.
var Blocks BufPool[float32]

// Buf is a pooled fixed-length slice. It is returned by pointer so that
// putting it back into the underlying sync.Pool does not allocate a box for
// the slice header (the cost this package exists to eliminate).
type Buf[T any] struct {
	Data []T
	home *bufHome
	refs atomic.Int32 // holders beyond the first (see Retain); -1 while pooled
}

// bufHome is one length class of a BufPool: the sync.Pool that recycles its
// buffers, and the owning pool's in-use gauge.
type bufHome struct {
	sync.Pool
	inUse *atomic.Int64
	bytes int64 // payload bytes of one buffer of this class
}

// Retain registers n more holders of a shared buffer. Only a current
// holder may call it, before handing the buffer on; each new holder then
// owes one Release.
func (b *Buf[T]) Retain(n int) { b.refs.Add(int32(n)) }

// Release drops the caller's hold; the last holder's Release returns the
// buffer to its pool. The caller must not touch Data again. Releasing a
// buffer that is already pooled panics: a second Put would hand it to two
// future owners.
func (b *Buf[T]) Release() {
	if b == nil {
		return
	}
	switch n := b.refs.Add(-1); {
	case n >= 0:
		return
	case n < -1:
		panic("engine: Buf released after its last holder")
	}
	poison(b.Data)
	b.home.inUse.Add(-b.home.bytes)
	b.home.Put(b)
}

// poison fills released float data with NaN (other element types with their
// zero value) under `go test`, so a read after release cannot pass for the
// right answer, unless a benchmark has turned it off (SetPoison).
func poison[T any](data []T) {
	if !testing.Testing() || noPoison.Load() {
		return
	}
	nan := float32(math.NaN())
	switch d := any(data).(type) {
	case []float32:
		for i := range d {
			d[i] = nan
		}
	case []complex64:
		for i := range d {
			d[i] = complex(nan, nan)
		}
	default:
		clear(data)
	}
}

// noPoison is set only while a benchmark runs with poisoning off.
var noPoison atomic.Bool

// SetPoison turns the test-time poisoning of released buffers on or off and
// returns a function that restores the previous setting. It exists for
// benchmarks that profile the pipeline under `go test`, where filling every
// released buffer with NaN would show in the profile as work production
// never does; tests leave it on. Outside `go test` nothing is poisoned
// either way.
func SetPoison(on bool) (restore func()) {
	prev := noPoison.Swap(!on)
	return func() { noPoison.Store(prev) }
}

// BufPool pools fixed-length []T buffers by exact length: FFT scratch rows,
// per-worker register files, per-batch matrix tables, inter-rank blocks.
// The zero value is ready to use.
type BufPool[T any] struct {
	mu    sync.Mutex
	byLen map[int]*bufHome
	inUse atomic.Int64 // bytes currently acquired and not yet released
}

func (p *BufPool[T]) pool(n int) *bufHome {
	p.mu.Lock()
	h, ok := p.byLen[n]
	if !ok {
		if p.byLen == nil {
			p.byLen = make(map[int]*bufHome)
		}
		var zero T
		h = &bufHome{inUse: &p.inUse, bytes: int64(n) * int64(unsafe.Sizeof(zero))}
		h.New = func() any { return &Buf[T]{Data: make([]T, n), home: h} }
		p.byLen[n] = h
	}
	p.mu.Unlock()
	return h
}

// Acquire returns a length-n buffer with undefined contents.
func (p *BufPool[T]) Acquire(n int) *Buf[T] {
	h := p.pool(n)
	p.inUse.Add(h.bytes)
	b := h.Get().(*Buf[T])
	b.refs.Store(0)
	return b
}

// InUseBytes returns the payload bytes currently checked out of the pool; a
// shared buffer counts once, until its last holder releases it.
func (p *BufPool[T]) InUseBytes() int64 { return p.inUse.Load() }
