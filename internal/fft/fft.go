// Package fft implements the fast Fourier transforms behind the iFDK
// filtering stage (Alg. 1 of the paper). The paper uses vendor FFT
// primitives (Intel IPP on the CPU); the Go standard library has none, so
// this package provides reusable plans for power-of-two lengths (ramp-filter
// convolution rows are zero-padded to one, NextPow2):
//
//   - Plan, an iterative radix-2 Cooley–Tukey complex128 transform — the
//     filter builds its ramp spectrum with Forward, and its test-only
//     reference row filter runs Forward then Inverse — and
//   - the single-precision Plan32 and RealPlan (real.go).
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// Plan caches the twiddle factors and bit-reversal permutation for a fixed
// power-of-two transform length. A Plan is safe for concurrent use because
// all state is read-only after construction.
type Plan struct {
	n       int
	logN    int
	perm    []int32
	twiddle []complex128 // forward twiddles: exp(-2πi k / n), k < n/2
}

// NewPlan builds a plan for length n, which must be a power of two ≥ 1.
func NewPlan(n int) (*Plan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: plan length %d is not a power of two", n)
	}
	p := &Plan{n: n, logN: bits.TrailingZeros(uint(n))}
	p.perm = make([]int32, n)
	for i := 0; i < n; i++ {
		p.perm[i] = int32(bits.Reverse32(uint32(i)) >> (32 - p.logN))
	}
	p.twiddle = make([]complex128, n/2)
	for k := range p.twiddle {
		angle := -2 * math.Pi * float64(k) / float64(n)
		p.twiddle[k] = cmplx.Rect(1, angle)
	}
	return p, nil
}

// N returns the transform length.
func (p *Plan) N() int { return p.n }

// Forward computes the in-place DFT of x (len(x) must equal the plan
// length): X[k] = Σ x[j]·exp(-2πi jk/n).
func (p *Plan) Forward(x []complex128) {
	p.transform(x, false)
}

// Inverse computes the in-place inverse DFT including the 1/n scaling, so
// Inverse(Forward(x)) == x up to rounding.
func (p *Plan) Inverse(x []complex128) {
	p.transform(x, true)
	inv := 1 / float64(p.n)
	for i := range x {
		x[i] = complex(real(x[i])*inv, imag(x[i])*inv)
	}
}

func (p *Plan) transform(x []complex128, inverse bool) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: input length %d does not match plan length %d", len(x), p.n))
	}
	// Bit-reversal permutation.
	for i, j := range p.perm {
		if int32(i) < j {
			x[i], x[int(j)] = x[int(j)], x[i]
		}
	}
	// Iterative butterflies.
	for size := 2; size <= p.n; size <<= 1 {
		half := size >> 1
		step := p.n / size
		for start := 0; start < p.n; start += size {
			for k := 0; k < half; k++ {
				w := p.twiddle[k*step]
				if inverse {
					w = cmplx.Conj(w)
				}
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
