package filter

import (
	"math"
	"math/rand"
	"testing"

	"ifdk/internal/ct/geometry"
	"ifdk/internal/engine"
	"ifdk/internal/race"
	"ifdk/pkg/volume"
)

// The RFFT hot path must reproduce the complex128 reference within
// single-precision tolerance for every apodization window. Measured worst
// relative error is ~2.5e-7; the bound leaves ~40x margin.
func TestRFFTMatchesComplex128AllWindows(t *testing.T) {
	g := geometry.Default(96, 8, 90, 32, 32, 32)
	rng := rand.New(rand.NewSource(42))
	e := volume.NewImage(g.Nu, g.Nv)
	for n := range e.Data {
		e.Data[n] = rng.Float32()*2 - 1
	}
	for _, w := range []Window{RamLak, SheppLogan, Cosine, Hamming, Hann} {
		f, err := New(g, w)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := f.ApplyRef(e)
		if err != nil {
			t.Fatal(err)
		}
		got := apply(t, f, e)
		var peak float64
		for _, x := range ref.Data {
			if a := math.Abs(float64(x)); a > peak {
				peak = a
			}
		}
		tol := 1e-5 * (peak + 1)
		for n := range ref.Data {
			if d := math.Abs(float64(got.Data[n] - ref.Data[n])); d > tol {
				t.Fatalf("%v: pixel %d differs by %g (peak %g)", w, n, d, peak)
			}
		}
	}
}

// In-place filtering (q == e) must produce the same bits as out-of-place.
func TestApplyIntoInPlace(t *testing.T) {
	g := testGeom()
	f, err := New(g, Hann)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	e := volume.NewImage(g.Nu, g.Nv)
	for n := range e.Data {
		e.Data[n] = rng.Float32()
	}
	out := apply(t, f, e)                     // out-of-place
	if err := f.ApplyInto(e, e); err != nil { // in place
		t.Fatal(err)
	}
	for n := range e.Data {
		if e.Data[n] != out.Data[n] {
			t.Fatalf("in-place result differs at %d: %g vs %g", n, e.Data[n], out.Data[n])
		}
	}
}

func TestApplyIntoRejectsMismatchedOutput(t *testing.T) {
	f, err := New(testGeom(), RamLak)
	if err != nil {
		t.Fatal(err)
	}
	e := volume.NewImage(testGeom().Nu, testGeom().Nv)
	if err := f.ApplyInto(e, volume.NewImage(3, 3)); err == nil {
		t.Error("mismatched output image should fail")
	}
	if _, err := f.ApplyRef(volume.NewImage(3, 3)); err == nil {
		t.Error("ApplyRef with mismatched image should fail")
	}
}

// Runs with warm (dirty) scratch pools must be bit-identical to cold runs:
// pooling must not change a single bit of the output.
func TestPooledRunsBitIdentical(t *testing.T) {
	g := testGeom()
	f, err := New(g, SheppLogan)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	e := volume.NewImage(g.Nu, g.Nv)
	for n := range e.Data {
		e.Data[n] = rng.Float32()*2 - 1
	}
	cold := apply(t, f, e)
	// Dirty the pools with unrelated data, then re-run.
	junk := volume.NewImage(g.Nu, g.Nv)
	for n := range junk.Data {
		junk.Data[n] = 1e9
	}
	apply(t, f, junk)
	warm := apply(t, f, e)
	for n := range cold.Data {
		if cold.Data[n] != warm.Data[n] {
			t.Fatalf("pooled rerun differs at %d: %g vs %g", n, cold.Data[n], warm.Data[n])
		}
	}
}

// Steady-state ApplyEncoded, ApplyImage, ApplyInto and Sweep must not
// allocate: the zero-per-projection guarantee of the filtering stage. Their
// pooled scratch all goes back.
func TestApplyIntoSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	base := engine.InUseBytes()
	g := testGeom()
	f, err := New(g, RamLak)
	if err != nil {
		t.Fatal(err)
	}
	e := volume.NewImage(g.Nu, g.Nv)
	q := volume.NewImage(g.Nu, g.Nv)
	for n := range e.Data {
		e.Data[n] = float32(n % 13)
	}
	for i := 0; i < 10; i++ { // warm the scratch pools
		if err := f.ApplyInto(e, q); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := f.ApplyInto(e, q); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 0.5 {
		t.Errorf("ApplyInto allocates %.2f objects/projection in steady state", avg)
	}
	// The one end, from the staged bytes (or an image encoded into pooled
	// bytes) into the transposed block: its stash, the encoded payload and
	// an odd last row's zero partner are not per-call either,
	// nor is the prefetch of the next pair, which passes between the ends
	// make at Nu 256 (L = 512) on AVX-512 hosts.
	for _, det := range [][2]int{{g.Nu, g.Nv}, {g.Nu, g.Nv + 1}, {256, 33}} {
		g := g
		g.Nu, g.Nv = det[0], det[1]
		f, err := New(g, RamLak)
		if err != nil {
			t.Fatal(err)
		}
		img := randImage(g, 4)
		blob := volume.ImageToBytes(img)
		block := make([]float32, g.Nu*g.Nv)
		for name, run := range map[string]func() error{
			"ApplyEncoded": func() error { return f.ApplyEncoded(blob, block) },
			"ApplyImage":   func() error { return f.ApplyImage(img, block) },
		} {
			for i := 0; i < 10; i++ {
				if err := run(); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(100, func() {
				if err := run(); err != nil {
					t.Fatal(err)
				}
			})
			if avg > 0.5 {
				t.Errorf("%s (Nu %d, Nv %d) allocates %.2f objects/projection in steady state", name, g.Nu, g.Nv, avg)
			}
		}
	}
	// The shared sweep, serial and fanned out: nothing per row pair or per
	// projection. The one object a sweep may allocate is the closure it
	// hands engine.ParallelRange, which the scheduler's job descriptor
	// retains.
	ins, outs := []*volume.Image{e, e}, []*volume.Image{q, volume.NewImage(g.Nu, g.Nv)}
	for _, workers := range []int{1, 2} {
		for i := 0; i < 10; i++ {
			if err := f.Sweep(ins, outs, workers); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(100, func() {
			if err := f.Sweep(ins, outs, workers); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 1 {
			t.Errorf("Sweep(workers=%d) allocates %.2f objects/sweep in steady state, want ≤ 1", workers, avg)
		}
	}
	if held := engine.InUseBytes() - base; held != 0 {
		t.Errorf("filtering left %d pooled bytes checked out", held)
	}
}
