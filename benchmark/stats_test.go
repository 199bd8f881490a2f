package main

import (
	"math"
	"testing"

	"ifdk/pkg/api"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The expected values are what Python's statistics.quantiles(xs, n=4) prints,
// which is the function the driver measures spread with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(8), [3]float64{2.25, 4.5, 6.75}}, // even n
		{seq(7), [3]float64{2, 4, 6}},         // odd n
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{seq(3), [3]float64{1, 2, 3}},
		{[]float64{5}, [3]float64{5, 5, 5}},
		{nil, [3]float64{0, 0, 0}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestQuartilesLeaveInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered: %v", xs)
	}
}

// No percentile without ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	if _, ok := percentile(seq(199), 0.95); ok {
		t.Error("p95 of 199 samples reported with only 9 samples beyond it")
	}
	v, ok := percentile(seq(200), 0.95)
	if !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 with ten samples beyond", v, ok)
	}
	if _, ok := percentile(seq(12), 0.95); ok {
		t.Error("p95 of 12 samples reported")
	}
	if _, ok := percentile(seq(1000), 0.99); !ok {
		t.Error("p99 of 1000 samples withheld")
	}
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples reported with only 9 samples beyond it")
	}
}

// A host that takes half as long again over the probe has its seconds
// shortened by as much, and its rates raised.
func TestEndToEndTimesAreCorrectedForTheHost(t *testing.T) {
	job := sample{item: item{spec: api.Spec{NX: 16, NP: 32, R: 2, C: 2}, repeatOf: -1}, job: 3, ttfs: 1.5, ttfv: 3, ops: 1}
	r := round{setupS: 6, wallS: 12, cpuS: 9, probeS: []float64{0.14, 0.16}, jobs: []sample{job}}
	a := aggregate([]round{r}, 0.1)
	want := values{"setup_s": 4, "job_p50_s": 2, "ttfs_p50_s": 1, "ttfv_p50_s": 2, "cpu_s_per_job": 6, "jobs_per_s": 1.5 / 12}
	for name, v := range want {
		if got := a.e2e[name]; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %g, want %g (as timed %g on a host at %g)", name, got, v, a.asTimed[name], a.host)
		}
	}
	if a.layers["host.slowdown"] != a.host || math.Abs(a.host-1.5) > 1e-9 {
		t.Errorf("host.slowdown = %g, host %g, want 1.5", a.layers["host.slowdown"], a.host)
	}
}
