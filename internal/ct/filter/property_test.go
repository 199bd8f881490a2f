package filter

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ifdk/internal/ct/geometry"
	"ifdk/pkg/volume"
)

// Property: the filtering stage is linear — Apply(a·X + Y) equals
// a·Apply(X) + Apply(Y) within float tolerance. (Cosine weighting and ramp
// convolution are both linear operators.)
func TestFilterLinearityProperty(t *testing.T) {
	g := geometry.Default(32, 8, 16, 8, 8, 8)
	f, err := New(g, RamLak)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64, aRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := float32(math.Mod(aRaw, 3))
		x := volume.NewImage(g.Nu, g.Nv)
		y := volume.NewImage(g.Nu, g.Nv)
		mix := volume.NewImage(g.Nu, g.Nv)
		for n := range x.Data {
			x.Data[n] = rng.Float32()*2 - 1
			y.Data[n] = rng.Float32()*2 - 1
			mix.Data[n] = a*x.Data[n] + y.Data[n]
		}
		qx, err := f.Apply(x)
		if err != nil {
			return false
		}
		qy, err := f.Apply(y)
		if err != nil {
			return false
		}
		qm, err := f.Apply(mix)
		if err != nil {
			return false
		}
		// The ramp filter is high-pass: it amplifies the float32 rounding
		// noise of forming a·X + Y uniformly across the image, so the
		// tolerance must scale with the filtered image's magnitude — a
		// per-element relative bound flags exact results wherever the
		// output happens to pass near zero. Measured headroom is ~3000×.
		scale := 0.0
		for n := range qm.Data {
			if w := math.Abs(float64(a)*float64(qx.Data[n]) + float64(qy.Data[n])); w > scale {
				scale = w
			}
		}
		for n := range qm.Data {
			want := float64(a)*float64(qx.Data[n]) + float64(qy.Data[n])
			if math.Abs(float64(qm.Data[n])-want) > 1e-3*(1+scale) {
				return false
			}
		}
		return true
	}
	// Fixed seed: the property must hold for any input, but CI runs must be
	// reproducible — a time-seeded failure cannot be re-run.
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: filtering is shift-covariant along rows away from the edges —
// shifting the input shifts the output.
func TestFilterShiftCovariance(t *testing.T) {
	g := geometry.Default(64, 4, 16, 8, 8, 8)
	f, err := New(g, RamLak)
	if err != nil {
		t.Fatal(err)
	}
	// Build an impulse at two nearby central positions; the cosine table
	// varies slowly there, so responses should match after shifting.
	mk := func(u int) *volume.Image {
		img := volume.NewImage(g.Nu, g.Nv)
		img.Set(u, 2, 1)
		return img
	}
	q1, err := f.Apply(mk(31))
	if err != nil {
		t.Fatal(err)
	}
	q2, err := f.Apply(mk(33))
	if err != nil {
		t.Fatal(err)
	}
	for off := -4; off <= 4; off++ {
		a := float64(q1.At(31+off, 2))
		b := float64(q2.At(33+off, 2))
		if math.Abs(a-b) > 2e-2*(1+math.Abs(a)) {
			t.Errorf("offset %d: responses differ: %g vs %g", off, a, b)
		}
	}
}
