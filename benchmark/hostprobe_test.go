package main

import (
	"math"
	"testing"
)

func TestHostProbeFFTRoundTrips(t *testing.T) {
	p := newHostProbe(8, 4, 1)
	x := make([]complex64, p.pad)
	for i := range x {
		x[i] = complex(float32(i%5)-2, float32(i%3))
	}
	y := append([]complex64(nil), x...)
	p.fft(y, false)
	var dc complex64
	for _, v := range x {
		dc += v
	}
	if d := y[0] - dc; math.Hypot(float64(real(d)), float64(imag(d))) > 1e-4 {
		t.Errorf("bin 0 is %v, want the sum %v", y[0], dc)
	}
	p.fft(y, true)
	for i := range x {
		d := y[i]/complex(float32(p.pad), 0) - x[i]
		if math.Hypot(float64(real(d)), float64(imag(d))) > 1e-4 {
			t.Fatalf("forward then inverse changed sample %d: %v → %v", i, x[i], y[i]/complex(float32(p.pad), 0))
		}
	}
}

// The probe is a yardstick: the same work, with the same result, every time.
func TestHostProbeIsTheSameWorkEveryTime(t *testing.T) {
	sum := func(p *hostProbe) (s float64) {
		for _, v := range p.vol {
			s += float64(v)
		}
		return s
	}
	a, b := newHostProbe(32, 16, 8), newHostProbe(32, 16, 8)
	a.run()
	first := sum(a)
	a.run()
	b.run()
	if first == 0 || math.IsNaN(first) || sum(a) != first || sum(b) != first {
		t.Errorf("volume sums %g, %g and %g: want one non-zero number", first, sum(a), sum(b))
	}
	if allocs := testing.AllocsPerRun(3, func() { a.run() }); allocs > 8 { // goroutines and their wait group only
		t.Errorf("a run of the probe allocates %g times", allocs)
	}
}
