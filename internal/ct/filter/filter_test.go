package filter

import (
	"math"
	"testing"

	"ifdk/internal/ct/geometry"
	"ifdk/pkg/volume"
)

func testGeom() geometry.Params {
	return geometry.Default(64, 32, 90, 32, 32, 32)
}

func TestRampKernelTaps(t *testing.T) {
	tau := 0.5
	taps := RampKernel(8, tau)
	if len(taps) != 15 {
		t.Fatalf("taps length %d", len(taps))
	}
	c := 7 // centre index
	if math.Abs(taps[c]-1/(4*tau*tau)) > 1e-12 {
		t.Errorf("h(0) = %g", taps[c])
	}
	for n := 1; n < 8; n++ {
		want := 0.0
		if n%2 == 1 {
			want = -1 / (math.Pi * math.Pi * float64(n*n) * tau * tau)
		}
		if math.Abs(taps[c+n]-want) > 1e-12 || math.Abs(taps[c-n]-want) > 1e-12 {
			t.Errorf("h(±%d) = %g/%g, want %g", n, taps[c+n], taps[c-n], want)
		}
	}
}

func TestRampKernelDCNearZero(t *testing.T) {
	// Σh → 0 as the kernel grows (Σ_odd 1/n² = π²/8 exactly).
	taps := RampKernel(4096, 1)
	var sum float64
	for _, v := range taps {
		sum += v
	}
	if math.Abs(sum) > 1e-4 {
		t.Errorf("kernel DC sum = %g", sum)
	}
}

func TestWindowGainAtZero(t *testing.T) {
	for _, w := range []Window{RamLak, SheppLogan, Cosine, Hamming, Hann} {
		if g := w.gain(0); math.Abs(g-1) > 1e-12 {
			t.Errorf("%v gain(0) = %g", w, g)
		}
		if w.String() == "" {
			t.Errorf("window %d has empty name", w)
		}
	}
	if Window(42).String() == "" {
		t.Error("unknown window should still format")
	}
}

func TestWindowHighFrequencyOrdering(t *testing.T) {
	// At Nyquist the smooth windows must attenuate more than Ram-Lak.
	rl := RamLak.gain(1)
	for _, w := range []Window{SheppLogan, Cosine, Hamming, Hann} {
		if g := w.gain(1); g >= rl {
			t.Errorf("%v gain(1) = %g, want < %g", w, g, rl)
		}
	}
	if h := Hann.gain(1); math.Abs(h) > 1e-12 {
		t.Errorf("hann gain(1) = %g, want 0", h)
	}
}

func TestCosineTable(t *testing.T) {
	g := testGeom()
	tab := CosineTable(g)
	if tab.W != g.Nu || tab.H != g.Nv {
		t.Fatalf("table size %dx%d", tab.W, tab.H)
	}
	// With an even detector the exact centre lies between pixels; the four
	// centre pixels share the max value < 1 and corners are the smallest.
	s := tab.Summarize()
	if s.Max >= 1 || s.Max < 0.99 {
		t.Errorf("max cosine = %g", s.Max)
	}
	if tab.At(0, 0) != s.Min {
		t.Errorf("corner %g is not the minimum %g", tab.At(0, 0), s.Min)
	}
	// Symmetry: F_cos(u, v) = F_cos(Nu-1-u, Nv-1-v).
	for v := 0; v < g.Nv; v += 5 {
		for u := 0; u < g.Nu; u += 7 {
			a := tab.At(u, v)
			b := tab.At(g.Nu-1-u, g.Nv-1-v)
			if math.Abs(float64(a-b)) > 1e-6 {
				t.Fatalf("cosine table asymmetric at (%d,%d)", u, v)
			}
		}
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	bad := testGeom()
	bad.Np = 0
	if _, err := New(bad, RamLak); err == nil {
		t.Error("New with invalid geometry should fail")
	}
}

func TestApplyRejectsWrongSize(t *testing.T) {
	f, err := New(testGeom(), RamLak)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Apply(volume.NewImage(3, 3)); err == nil {
		t.Error("Apply with mismatched image should fail")
	}
}

func TestConstantProjectionFiltersToNearZero(t *testing.T) {
	// The ramp filter removes DC; a flat projection row should filter to
	// (approximately) zero away from the edges.
	g := testGeom()
	f, err := New(g, RamLak)
	if err != nil {
		t.Fatal(err)
	}
	e := volume.NewImage(g.Nu, g.Nv)
	for n := range e.Data {
		e.Data[n] = 1
	}
	q, err := f.Apply(e)
	if err != nil {
		t.Fatal(err)
	}
	// Compare interior magnitude to the impulse response magnitude.
	imp := volume.NewImage(g.Nu, g.Nv)
	imp.Set(g.Nu/2, g.Nv/2, 1)
	qImp, _ := f.Apply(imp)
	ref := math.Abs(float64(qImp.At(g.Nu/2, g.Nv/2)))
	mid := math.Abs(float64(q.At(g.Nu/2, g.Nv/2)))
	if mid > 0.05*ref {
		t.Errorf("flat row filtered to %g, impulse ref %g", mid, ref)
	}
}

func TestImpulseResponseMatchesKernel(t *testing.T) {
	// A unit impulse at the row centre reproduces the scaled ramp taps
	// (modulo the cosine weight at that pixel).
	g := testGeom()
	f, err := New(g, RamLak)
	if err != nil {
		t.Fatal(err)
	}
	e := volume.NewImage(g.Nu, g.Nv)
	cu, cv := g.Nu/2, g.Nv/2
	e.Set(cu, cv, 1)
	// The complex128 reference path keeps this tight tolerance; the RFFT
	// hot path is pinned to the reference by the parity tests.
	q, err := f.ApplyRef(e)
	if err != nil {
		t.Fatal(err)
	}
	tau := g.Du * g.SAD / g.SDD
	scale := g.Theta() * g.SAD * g.SAD * tau / 2 * float64(CosineTable(g).At(cu, cv))
	taps := RampKernel(g.Nu, tau)
	for off := -3; off <= 3; off++ {
		got := float64(q.At(cu+off, cv))
		want := scale * taps[g.Nu-1+off]
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Errorf("impulse response at offset %d = %g, want %g", off, got, want)
		}
	}
	// Other rows stay zero (row-wise convolution only).
	if q.At(cu, cv+1) != 0 {
		t.Error("filtering leaked across rows")
	}
}

func TestSweepMatchesSequential(t *testing.T) {
	g := testGeom()
	f, err := New(g, Hamming)
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([]*volume.Image, 7)
	batch := make([]*volume.Image, len(imgs))
	for n := range imgs {
		imgs[n] = volume.NewImage(g.Nu, g.Nv)
		for m := range imgs[n].Data {
			imgs[n].Data[m] = float32((n*31+m*7)%17) / 17
		}
		batch[n] = volume.NewImage(g.Nu, g.Nv)
	}
	if err := f.Sweep(imgs, batch, 4); err != nil {
		t.Fatal(err)
	}
	for n := range imgs {
		single, err := f.Apply(imgs[n])
		if err != nil {
			t.Fatal(err)
		}
		r, _ := volume.ImageRMSE(batch[n], single)
		if r != 0 {
			t.Errorf("projection %d: batch result differs (rmse %g)", n, r)
		}
	}
}

func TestSweepPropagatesError(t *testing.T) {
	g := testGeom()
	f, _ := New(g, RamLak)
	imgs := []*volume.Image{volume.NewImage(g.Nu, g.Nv), volume.NewImage(2, 2)}
	outs := []*volume.Image{volume.NewImage(g.Nu, g.Nv), volume.NewImage(g.Nu, g.Nv)}
	if err := f.Sweep(imgs, outs, 2); err == nil {
		t.Error("sweep over a bad image should fail")
	}
}

func TestWindowReducesRinging(t *testing.T) {
	// The Hann-filtered impulse response has a smaller peak than Ram-Lak.
	g := testGeom()
	e := volume.NewImage(g.Nu, g.Nv)
	e.Set(g.Nu/2, g.Nv/2, 1)
	fr, _ := New(g, RamLak)
	fh, _ := New(g, Hann)
	qr, _ := fr.Apply(e)
	qh, _ := fh.Apply(e)
	if math.Abs(float64(qh.At(g.Nu/2, g.Nv/2))) >= math.Abs(float64(qr.At(g.Nu/2, g.Nv/2))) {
		t.Error("Hann peak should be below Ram-Lak peak")
	}
}
