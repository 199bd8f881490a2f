package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference forward transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			sum += x[j] * cmplx.Rect(1, -2*math.Pi*float64(j*k)/float64(n))
		}
		out[k] = sum
	}
	return out
}

func randComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	var worst float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// transform returns Forward (or Inverse) of a copy of x, whose length must
// be a power of two.
func transform(x []complex128, inverse bool) []complex128 {
	p, err := NewPlan(len(x))
	if err != nil {
		panic(err)
	}
	out := slices.Clone(x)
	if inverse {
		p.Inverse(out)
	} else {
		p.Forward(out)
	}
	return out
}

func TestNewPlanRejectsNonPow2(t *testing.T) {
	for _, n := range []int{0, -1, 3, 6, 100} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d) should fail", n)
		}
	}
	for _, n := range []int{1, 2, 4, 1024} {
		if _, err := NewPlan(n); err != nil {
			t.Errorf("NewPlan(%d): %v", n, err)
		}
	}
}

func TestForwardMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randComplex(n, int64(n))
		want := naiveDFT(x)
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, n)
		copy(got, x)
		p.Forward(got)
		if e := maxErr(got, want); e > 1e-9 {
			t.Errorf("n=%d: max error %g", n, e)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 8, 128, 1024} {
		x := randComplex(n, int64(n)+100)
		p, _ := NewPlan(n)
		got := make([]complex128, n)
		copy(got, x)
		p.Forward(got)
		p.Inverse(got)
		if e := maxErr(got, x); e > 1e-10 {
			t.Errorf("n=%d: round-trip error %g", n, e)
		}
	}
}

func TestImpulseResponse(t *testing.T) {
	// DFT of a unit impulse is all-ones.
	n := 16
	x := make([]complex128, n)
	x[0] = 1
	got := transform(x, false)
	for k := range got {
		if cmplx.Abs(got[k]-1) > 1e-12 {
			t.Fatalf("impulse spectrum at %d = %v", k, got[k])
		}
	}
}

func TestDCComponent(t *testing.T) {
	// DFT of constant c has only bin 0 = n*c.
	n := 32
	x := make([]complex128, n)
	for i := range x {
		x[i] = 2
	}
	got := transform(x, false)
	if cmplx.Abs(got[0]-complex(float64(2*n), 0)) > 1e-9 {
		t.Errorf("DC bin = %v", got[0])
	}
	for k := 1; k < n; k++ {
		if cmplx.Abs(got[k]) > 1e-9 {
			t.Errorf("bin %d = %v, want 0", k, got[k])
		}
	}
}

func TestParseval(t *testing.T) {
	// Energy in time domain equals energy in frequency domain / n.
	x := randComplex(256, 99)
	spec := transform(x, false)
	var et, ef float64
	for i := range x {
		et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		ef += real(spec[i])*real(spec[i]) + imag(spec[i])*imag(spec[i])
	}
	if math.Abs(et-ef/256)/et > 1e-12 {
		t.Errorf("Parseval violated: %g vs %g", et, ef/256)
	}
}

// Property: Inverse(Forward(x)) == x for random power-of-two lengths.
func TestRoundTripProperty(t *testing.T) {
	f := func(logN uint8, seed int64) bool {
		x := randComplex(1<<(logN%11), seed)
		back := transform(transform(x, false), true)
		return maxErr(back, x) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: linearity Forward(a*x + y) == a*Forward(x) + Forward(y).
func TestLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		const n = 64
		x := randComplex(n, seed)
		y := randComplex(n, seed+1)
		a := complex(1.7, -0.3)
		mix := make([]complex128, n)
		for i := range mix {
			mix[i] = a*x[i] + y[i]
		}
		lhs := transform(mix, false)
		fx, fy := transform(x, false), transform(y, false)
		rhs := make([]complex128, n)
		for i := range rhs {
			rhs[i] = a*fx[i] + fy[i]
		}
		return maxErr(lhs, rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestForwardPanicsOnLengthMismatch(t *testing.T) {
	p, _ := NewPlan(8)
	defer func() {
		if recover() == nil {
			t.Error("Forward with wrong length should panic")
		}
	}()
	p.Forward(make([]complex128, 4))
}

func BenchmarkForward1024(b *testing.B) {
	p, _ := NewPlan(1024)
	x := randComplex(1024, 1)
	buf := make([]complex128, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		p.Forward(buf)
	}
}

func BenchmarkForward4096(b *testing.B) {
	p, _ := NewPlan(4096)
	x := randComplex(4096, 1)
	buf := make([]complex128, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		p.Forward(buf)
	}
}
