package filter

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ifdk/internal/ct/geometry"
	"ifdk/pkg/volume"
)

// apply filters e into a new image through ApplyInto.
func apply(t testing.TB, f *Filterer, e *volume.Image) *volume.Image {
	t.Helper()
	q := volume.NewImage(e.W, e.H)
	if err := f.ApplyInto(e, q); err != nil {
		t.Fatal(err)
	}
	return q
}

func randImage(g geometry.Params, seed int64) *volume.Image {
	rng := rand.New(rand.NewSource(seed))
	e := volume.NewImage(g.Nu, g.Nv)
	for n := range e.Data {
		e.Data[n] = rng.Float32()*2 - 1
	}
	return e
}

func peakAbs(x []float32) float64 {
	var peak float64
	for _, v := range x {
		peak = math.Max(peak, math.Abs(float64(v)))
	}
	return peak
}

func sameBits(t *testing.T, name string, got, want *volume.Image) {
	t.Helper()
	for n := range want.Data {
		if math.Float32bits(got.Data[n]) != math.Float32bits(want.Data[n]) {
			t.Fatalf("%s: pixel (%d,%d) = %g, want %g", name, n%want.W, n/want.W, got.Data[n], want.Data[n])
		}
	}
}

// The row-pair path must reproduce the complex128 row-at-a-time reference to
// 1e-6 of the image peak for every window, on padded lengths with odd log₂
// (Nu 48 and 64 → L 128, which ends in the radix-2 pass) and even log₂
// (Nu 100 → L 256, Nu 512 → L 1024), a non-power-of-two width, and an odd
// row count (last row paired with zeros).
func TestPairMatchesComplex128(t *testing.T) {
	worst := 0.0
	for _, nu := range []int{48, 64, 100, 512} {
		for _, nv := range []int{6, 7} {
			g := geometry.Default(nu, nv, 90, 32, 32, 32)
			e := randImage(g, int64(nu*10+nv))
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
				peak := peakAbs(ref.Data)
				for n := range ref.Data {
					d := math.Abs(float64(got.Data[n])-float64(ref.Data[n])) / peak
					worst = math.Max(worst, d)
					if d > 1e-6 {
						t.Fatalf("nu=%d nv=%d %v: pixel %d differs by %g of the peak", nu, nv, w, n, d)
					}
				}
			}
		}
	}
	t.Logf("worst deviation %.2g of the peak", worst)
}

// The pairing is fixed, so scheduling cannot change a bit: ApplyInto and
// Sweep at any worker count (in place and out of place) agree bitwise, on
// an odd row count too.
func TestSweepBitIdenticalToApplyInto(t *testing.T) {
	for _, nv := range []int{8, 9} {
		g := geometry.Default(64, nv, 90, 32, 32, 32)
		f, err := New(g, SheppLogan)
		if err != nil {
			t.Fatal(err)
		}
		ins := make([]*volume.Image, 5)
		want := make([]*volume.Image, len(ins))
		for n := range ins {
			ins[n] = randImage(g, int64(100+n))
			want[n] = volume.NewImage(g.Nu, g.Nv)
			if err := f.ApplyInto(ins[n], want[n]); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 2, 3, 7} {
			outs := make([]*volume.Image, len(ins))
			inPlace := make([]*volume.Image, len(ins))
			for n := range ins {
				outs[n] = volume.NewImage(g.Nu, g.Nv)
				inPlace[n] = ins[n].Clone()
			}
			if err := f.Sweep(ins, outs, workers); err != nil {
				t.Fatal(err)
			}
			if err := f.Sweep(inPlace, inPlace, workers); err != nil {
				t.Fatal(err)
			}
			for n := range ins {
				name := fmt.Sprintf("nv=%d workers=%d projection %d", nv, workers, n)
				sameBits(t, "Sweep "+name, outs[n], want[n])
				sameBits(t, "in-place Sweep "+name, inPlace[n], want[n])
			}
		}
	}
}

// Two rows share one complex transform, so a row sees its partner only
// through rounding: next to a large impulse in row 2k, row 2k+1 stays within
// 1e-6 of the pair's peak of what it filters to beside an all-zero partner,
// and rows of other pairs do not move at all.
func TestPairCrossTalkBound(t *testing.T) {
	g := geometry.Default(64, 6, 90, 32, 32, 32)
	f, err := New(g, RamLak)
	if err != nil {
		t.Fatal(err)
	}
	solo := randImage(g, 3)
	clear(solo.Row(2))
	both := solo.Clone()
	both.Set(g.Nu/2, 2, 1000)
	qSolo, qBoth := apply(t, f, solo), apply(t, f, both)
	peak := math.Max(peakAbs(qBoth.Row(2)), peakAbs(qBoth.Row(3)))
	for u, want := range qSolo.Row(3) {
		if d := math.Abs(float64(qBoth.At(u, 3))-float64(want)) / peak; d > 1e-6 {
			t.Fatalf("row 3 pixel %d moved by %g of the pair's peak", u, d)
		}
	}
	for _, v := range []int{0, 1, 4, 5} {
		for u, want := range qSolo.Row(v) {
			if qBoth.At(u, v) != want {
				t.Fatalf("row %d pixel %d changed with an impulse in row 2", v, u)
			}
		}
	}
}

// A NaN poisons its own row and may poison its pair partner; every other
// pair is bit-identical to the clean run.
func TestNaNStaysInsideItsPair(t *testing.T) {
	g := geometry.Default(64, 7, 90, 32, 32, 32)
	f, err := New(g, Hann)
	if err != nil {
		t.Fatal(err)
	}
	clean := randImage(g, 9)
	dirty := clean.Clone()
	dirty.Set(5, 3, float32(math.NaN()))
	qClean, qDirty := apply(t, f, clean), apply(t, f, dirty)
	for u := 0; u < g.Nu; u++ {
		if x := qDirty.At(u, 3); !math.IsNaN(float64(x)) {
			t.Fatalf("row 3 pixel %d = %g, want NaN", u, x)
		}
	}
	for _, v := range []int{0, 1, 4, 5, 6} {
		for u, want := range qClean.Row(v) {
			if qDirty.At(u, v) != want {
				t.Fatalf("NaN in row 3 reached row %d pixel %d", v, u)
			}
		}
	}
}
