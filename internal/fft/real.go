package fft

// Single-precision transforms over complex64 and real float32 signals:
//
//   - Plan32, an in-place complex transform (a bit-reversal permutation,
//     then the radix-4 kernels.DIT passes), and
//   - RealPlan, a half-spectrum real FFT: an n-point real transform computed
//     as an n/2-point complex transform of packed even/odd samples plus an
//     O(n) unpack (the classic "realft" split). Only the n/2+1 independent
//     bins are produced; the conjugate-symmetric upper half is implicit.
//
// Plans are safe for concurrent use: all state is read-only after
// construction, and callers supply their own scratch.

import (
	"fmt"
	"math"
	"math/bits"

	"ifdk/internal/ct/kernels"
)

// Plan32 caches the bit-reversal permutation and the twiddle tables for a
// fixed power-of-two complex64 transform length.
type Plan32 struct {
	n    int
	perm []int32
	fwd  []complex64 // kernels.FFTTwiddles, forward
	inv  []complex64 // the same table conjugated, for the inverse transform
}

// NewPlan32 builds a single-precision plan for length n (a power of two
// ≥ 1).
func NewPlan32(n int) (*Plan32, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: plan length %d is not a power of two", n)
	}
	logN := bits.TrailingZeros(uint(n))
	p := &Plan32{n: n, fwd: kernels.FFTTwiddles(n, false), inv: kernels.FFTTwiddles(n, true)}
	p.perm = make([]int32, n)
	for i := 0; i < n; i++ {
		p.perm[i] = int32(bits.Reverse32(uint32(i)) >> (32 - logN))
	}
	return p, nil
}

// N returns the transform length.
func (p *Plan32) N() int { return p.n }

// Forward computes the in-place DFT of x (len(x) must equal the plan
// length).
func (p *Plan32) Forward(x []complex64) { p.transform(x, p.fwd) }

// Inverse computes the in-place inverse DFT including the 1/n scaling.
func (p *Plan32) Inverse(x []complex64) {
	p.transform(x, p.inv)
	scale := float32(1) / float32(p.n)
	for i := range x {
		x[i] = complex(real(x[i])*scale, imag(x[i])*scale)
	}
}

// transform permutes x into bit-reversed order and runs the decimation-in-
// time kernel, which leaves natural order.
func (p *Plan32) transform(x, tw []complex64) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: input length %d does not match plan length %d", len(x), p.n))
	}
	for i, j := range p.perm {
		if int32(i) < j {
			x[i], x[int(j)] = x[int(j)], x[i]
		}
	}
	kernels.DIT(x, tw)
}

// RealPlan computes forward and inverse DFTs of real float32 signals of a
// fixed power-of-two length n ≥ 2, producing/consuming only the half
// spectrum X[0..n/2] (n/2+1 complex64 bins; the remaining bins are the
// conjugate mirror X[n-k] = conj(X[k]) and are never materialized).
//
// Nothing in the pipeline uses a RealPlan: the filter transforms two rows
// per complex FFT on kernels.DIF / DIT. It stays, with NewRealPlan /
// HalfLen / Forward / Inverse and NextPow2 at these exact signatures,
// because benchmark/layers.go measures fft.real_row_ns through them and a
// change that claims a gain may not edit benchmark/. A benchmark change can
// re-point that row at kernels.DIF / DIT and retire this type together with
// kernels.RealUnpack / RealRepack.
type RealPlan struct {
	n    int
	half *Plan32     // n/2-point complex transform of packed samples
	w    []complex64 // unpack twiddles: exp(-2πi k / n), k ≤ n/4
}

// NewRealPlan builds a real-input plan for length n, a power of two ≥ 2.
func NewRealPlan(n int) (*RealPlan, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: real plan length %d is not a power of two ≥ 2", n)
	}
	half, err := NewPlan32(n / 2)
	if err != nil {
		return nil, err
	}
	p := &RealPlan{n: n, half: half}
	p.w = make([]complex64, n/4+1)
	for k := range p.w {
		angle := -2 * math.Pi * float64(k) / float64(n)
		p.w[k] = complex(float32(math.Cos(angle)), float32(math.Sin(angle)))
	}
	return p, nil
}

// N returns the real transform length.
func (p *RealPlan) N() int { return p.n }

// HalfLen returns the number of spectrum bins, n/2 + 1.
func (p *RealPlan) HalfLen() int { return p.n/2 + 1 }

// Forward computes the half spectrum of the real signal src (length n) into
// dst (length ≥ n/2+1). dst doubles as the working buffer, so src and dst
// must not alias. dst[0] and dst[n/2] have zero imaginary parts.
func (p *RealPlan) Forward(dst []complex64, src []float32) {
	m := p.n / 2
	if len(src) != p.n {
		panic(fmt.Sprintf("fft: real input length %d does not match plan length %d", len(src), p.n))
	}
	if len(dst) < m+1 {
		panic(fmt.Sprintf("fft: spectrum buffer %d too short for %d bins", len(dst), m+1))
	}
	// Pack even/odd samples: z[j] = x[2j] + i·x[2j+1].
	z := dst[:m]
	for j := 0; j < m; j++ {
		z[j] = complex(src[2*j], src[2*j+1])
	}
	p.half.Forward(z)
	// Unpack the half transform into the n-point half spectrum (the classic
	// realft split; formulas on kernels.RealUnpackRef).
	kernels.RealUnpack(dst, p.w, m)
}

// Inverse reconstructs the real signal (length n) from the half spectrum
// spec (length ≥ n/2+1), including the 1/n scaling, so
// Inverse(dst, Forward(spec, dst)) round-trips. The imaginary parts of
// spec[0] and spec[n/2] are ignored (they are zero for any real signal).
// spec is consumed as scratch: its contents are undefined afterwards.
func (p *RealPlan) Inverse(dst []float32, spec []complex64) {
	m := p.n / 2
	if len(dst) != p.n {
		panic(fmt.Sprintf("fft: real output length %d does not match plan length %d", len(dst), p.n))
	}
	if len(spec) < m+1 {
		panic(fmt.Sprintf("fft: spectrum buffer %d too short for %d bins", len(spec), m+1))
	}
	// Repack the half spectrum into the m-point spectrum of z (formulas on
	// kernels.RealRepackRef).
	kernels.RealRepack(spec, p.w, m)
	z := spec[:m]
	p.half.Inverse(z)
	for j := 0; j < m; j++ {
		dst[2*j] = real(z[j])
		dst[2*j+1] = imag(z[j])
	}
}
