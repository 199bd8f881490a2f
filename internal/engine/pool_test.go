package engine

import (
	"math"
	"sync"
	"testing"

	"ifdk/internal/race"
	"ifdk/pkg/volume"
)

func TestImagePoolShapeAndReuse(t *testing.T) {
	var p ImagePool
	a := p.Acquire(16, 8)
	if a.W != 16 || a.H != 8 || len(a.Data) != 16*8 {
		t.Fatalf("acquired image %dx%d (len %d)", a.W, a.H, len(a.Data))
	}
	a.Data[0] = 42
	p.Release(a)
	b := p.Acquire(16, 8)
	if b != a {
		// Not guaranteed by sync.Pool, but with no GC between Put and Get
		// on one goroutine the buffer comes back; a failure here is a
		// smell, not a spec violation.
		t.Logf("pool did not reuse the image (allowed, but unexpected)")
	}
	c := p.Acquire(8, 16) // different shape must be a different buffer
	if c == a {
		t.Fatal("pool returned a 16x8 buffer for an 8x16 request")
	}
	p.Release(b)
	p.Release(c)
	p.Release(nil) // must not panic
}

func TestVolumePoolZeroesOnAcquire(t *testing.T) {
	var p VolumePool
	v := p.Acquire(4, 4, 4, volume.KMajor)
	v.Fill(7)
	p.Release(v)
	w := p.Acquire(4, 4, 4, volume.KMajor)
	for n, x := range w.Data {
		if x != 0 {
			t.Fatalf("reused volume not zeroed at %d: %g", n, x)
		}
	}
	if w.Nx != 4 || w.Ny != 4 || w.Nz != 4 || w.Layout != volume.KMajor {
		t.Fatalf("acquired volume has wrong shape: %+v", w)
	}
	p.Release(w)
	p.Release(nil)
}

func TestVolumePoolKeysByLayout(t *testing.T) {
	var p VolumePool
	k := p.Acquire(3, 3, 3, volume.KMajor)
	p.Release(k)
	i := p.Acquire(3, 3, 3, volume.IMajor)
	if i.Layout != volume.IMajor {
		t.Fatalf("layout %v leaked across pool keys", i.Layout)
	}
	p.Release(i)
}

func TestBufPoolLengthsAndRelease(t *testing.T) {
	var p BufPool[float32]
	b := p.Acquire(33)
	if len(b.Data) != 33 {
		t.Fatalf("acquired %d floats, want 33", len(b.Data))
	}
	b.Data[32] = 1
	b.Release()
	c := p.Acquire(64)
	if len(c.Data) != 64 {
		t.Fatalf("acquired %d floats, want 64", len(c.Data))
	}
	c.Release()
	var q BufPool[complex64]
	z := q.Acquire(5)
	if len(z.Data) != 5 {
		t.Fatalf("acquired %d complex64, want 5", len(z.Data))
	}
	z.Release()
}

// A buffer shared by n+1 holders (Retain(n)) goes back to its pool exactly
// once, on the last of n+1 concurrent Releases: the pool's gauge holds the
// buffer's bytes while any holder remains and drops to zero — not below —
// after the last, and the buffer comes out of the pool unshared.
func TestBufRetainReleasesOnceAfterLastHolder(t *testing.T) {
	var p BufPool[float32]
	const bytes = 4 * 16
	releaseConcurrently := func(b *Buf[float32], k int) {
		var wg sync.WaitGroup
		for range k {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b.Release()
			}()
		}
		wg.Wait()
	}
	for _, n := range []int{0, 1, 2, 7, 31} {
		// All but one holder let go concurrently: the buffer stays out.
		b := p.Acquire(16)
		b.Retain(n)
		releaseConcurrently(b, n)
		if got := p.InUseBytes(); got != bytes {
			t.Fatalf("n=%d: in-use %d B with one holder left, want %d", n, got, bytes)
		}
		b.Release()
		if got := p.InUseBytes(); got != 0 {
			t.Fatalf("n=%d: in-use %d B after the last Release, want 0", n, got)
		}
		if got := b.refs.Load(); got != -1 {
			t.Fatalf("n=%d: buffer went home with refs %d, want -1 (pooled)", n, got)
		}

		// All n+1 holders racing: it goes home once (twice would read -bytes).
		b = p.Acquire(16)
		b.Retain(n)
		releaseConcurrently(b, n+1)
		if got := p.InUseBytes(); got != 0 {
			t.Fatalf("n=%d: in-use %d B after n+1 racing Releases, want 0", n, got)
		}
	}
}

// Steady-state acquire/release cycles must not allocate — this is the
// zero-per-projection guarantee for the filter scratch and staging images.
func TestPoolsSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	var ip ImagePool
	var bp BufPool[float32]
	for i := 0; i < 50; i++ {
		img := ip.Acquire(32, 4)
		ip.Release(img)
		b := bp.Acquire(128)
		b.Release()
	}
	avg := testing.AllocsPerRun(200, func() {
		img := ip.Acquire(32, 4)
		ip.Release(img)
		b := bp.Acquire(128)
		b.Release()
	})
	if avg > 1 {
		t.Errorf("pool round trip allocates %.2f objects/op in steady state", avg)
	}
}

func TestPoolInUseGauges(t *testing.T) {
	var ip ImagePool
	var vp VolumePool
	if ip.InUseBytes() != 0 || vp.InUseBytes() != 0 {
		t.Fatal("fresh pools report in-use bytes")
	}
	img := ip.Acquire(16, 8)
	if got := ip.InUseBytes(); got != 4*16*8 {
		t.Fatalf("image in-use = %d, want %d", got, 4*16*8)
	}
	vol := vp.Acquire(4, 4, 4, volume.KMajor)
	if got := vp.InUseBytes(); got != 4*4*4*4 {
		t.Fatalf("volume in-use = %d, want %d", got, 4*4*4*4)
	}
	ip.Release(img)
	vp.Release(vol)
	if ip.InUseBytes() != 0 || vp.InUseBytes() != 0 {
		t.Fatalf("gauges nonzero after release: images %d, volumes %d",
			ip.InUseBytes(), vp.InUseBytes())
	}
	ip.Release(nil) // nil release must not move the gauge
	vp.Release(nil)
	if ip.InUseBytes() != 0 || vp.InUseBytes() != 0 {
		t.Fatal("nil release moved a gauge")
	}
}

// A second Release of a pooled Buf panics instead of putting it into the
// pool twice, and under go test a released buffer reads NaN: a double
// release or a read after release cannot pass silently.
func TestReleaseChecksContract(t *testing.T) {
	var p BufPool[float32]
	b := p.Acquire(4)
	b.Retain(1)
	b.Release()
	b.Release()
	if !math.IsNaN(float64(b.Data[0])) {
		t.Errorf("released buffer reads %g, want NaN", b.Data[0])
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second Release after the last holder did not panic")
			}
		}()
		b.Release()
	}()
	var ip ImagePool
	img := ip.Acquire(2, 2)
	ip.Release(img)
	if !math.IsNaN(float64(img.Data[3])) {
		t.Errorf("released image reads %g, want NaN", img.Data[3])
	}
}
