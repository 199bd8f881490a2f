package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive method:
// cut point i sits at rank i·(n+1)/4, linearly interpolated between its two
// neighbours and extrapolated from the outermost pair when the rank falls
// outside the data). The driver judges run-to-run spread with that function,
// so the benchmark reports the same numbers. One sample is its own three
// quartiles; no samples give zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	return cutPoint(s, 1), cutPoint(s, 2), cutPoint(s, 3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// cutPoint is the i-th of the three quartile cut points of sorted data of
// length at least two.
func cutPoint(s []float64, i int) float64 {
	n := len(s)
	j := min(max(i*(n+1)/4, 1), n-1)
	delta := float64(i*(n+1) - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}

// tailMinBeyond is how many samples must lie beyond a percentile before it
// is reported: below that the value is set by one or two stragglers and does
// not repeat between runs.
const tailMinBeyond = 10

// percentile returns the p-th percentile (0 < p < 1, nearest rank) of xs,
// and false when fewer than tailMinBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if rank < 1 || n-rank < tailMinBeyond {
		return 0, false
	}
	return sortedCopy(xs)[rank-1], true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, and 0 when b is 0 (a metric that does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
