package kernels

// FFT butterfly kernel: one radix-2 pass of the iterative Cooley-Tukey
// transform over complex64. The direction is encoded entirely in the twiddle
// table (callers pass conjugated twiddles for the inverse transform), so the
// per-butterfly direction branch of the pre-kernel implementation is gone
// from the hot loop in both variants.

// ButterflyStage applies the radix-2 butterflies of one transform stage in
// place: for every aligned block of `size` elements of x and every
// k < size/2,
//
//	a, b := x[s+k], x[s+k+size/2]·tw[k·step]
//	x[s+k], x[s+k+size/2] = a+b, a-b
//
// len(x) must be a multiple of size; size must be a power of two ≥ 2; tw
// must hold at least (size/2-1)·step+1 twiddles.
//
//ifdk:hotpath
func ButterflyStage(x, tw []complex64, size, step int) {
	if useFast {
		butterflyStageFast(x, tw, size, step)
		return
	}
	ButterflyStageRef(x, tw, size, step)
}

// ButterflyStageRef is the scalar reference for ButterflyStage.
//
//ifdk:hotpath
func ButterflyStageRef(x, tw []complex64, size, step int) {
	half := size >> 1
	for start := 0; start+size <= len(x); start += size {
		for k := 0; k < half; k++ {
			w := tw[k*step]
			a := x[start+k]
			b := x[start+k+half] * w
			x[start+k] = a + b
			x[start+k+half] = a - b
		}
	}
}

//ifdk:hotpath
func butterflyStageFast(x, tw []complex64, size, step int) {
	half := size >> 1
	if half == 1 {
		// First stage: w = tw[0] = 1, adjacent pairs, pure adds.
		for i := 0; i+2 <= len(x); i += 2 {
			a, b := x[i], x[i+1]
			x[i] = a + b
			x[i+1] = a - b
		}
		return
	}
	if half == 2 {
		// Second stage: w0 = 1 and w1 = tw[step] ≈ ∓i (the float32 twiddle
		// may carry a ~1e-17 real part from rounding cos(π/2), which the
		// shortcut drops — far below the kernel parity bound).
		s := imag(tw[step])
		for i := 0; i+4 <= len(x); i += 4 {
			a0, a1 := x[i], x[i+1]
			b0 := x[i+2]
			b1v := x[i+3]
			b1 := complex(-s*imag(b1v), s*real(b1v))
			x[i] = a0 + b0
			x[i+1] = a1 + b1
			x[i+2] = a0 - b0
			x[i+3] = a1 - b1
		}
		return
	}
	step2, step3 := 2*step, 3*step
	for start := 0; start+size <= len(x); start += size {
		// Full-width capped windows over the block's two halves: one bounds
		// check each here buys check-free stride-1 indexing below. The
		// twiddle multiply is decomposed into explicit float32 arithmetic —
		// the complex64 operator would round-trip through float64 — so the
		// loop is pure float32 mul/add the compiler can pipeline.
		xa := x[start : start+half : start+half]
		xb := x[start+half : start+size : start+size]
		k, ti := 0, 0
		for ; k+4 <= half; k, ti = k+4, ti+4*step {
			b0 := cmul(xb[k], tw[ti])
			b1 := cmul(xb[k+1], tw[ti+step])
			b2 := cmul(xb[k+2], tw[ti+step2])
			b3 := cmul(xb[k+3], tw[ti+step3])
			a0, a1, a2, a3 := xa[k], xa[k+1], xa[k+2], xa[k+3]
			xa[k] = a0 + b0
			xa[k+1] = a1 + b1
			xa[k+2] = a2 + b2
			xa[k+3] = a3 + b3
			xb[k] = a0 - b0
			xb[k+1] = a1 - b1
			xb[k+2] = a2 - b2
			xb[k+3] = a3 - b3
		}
		for ; k < half; k, ti = k+1, ti+step {
			a := xa[k]
			b := cmul(xb[k], tw[ti])
			xa[k] = a + b
			xb[k] = a - b
		}
	}
}

// RealUnpack performs the O(n) "realft" unpack after the half-length
// complex transform of a packed real signal: dst[:m] holds Z = FFT(z) with
// z[j] = x[2j] + i·x[2j+1], and on return dst[0..m] holds the half spectrum
// X[0..m]. w are the unpack twiddles exp(-2πi k/n) for k ≤ m/2 (n = 2m).
//
//ifdk:hotpath
func RealUnpack(dst, w []complex64, m int) {
	if useFast {
		realUnpackFast(dst, w, m)
		return
	}
	RealUnpackRef(dst, w, m)
}

// RealUnpackRef is the scalar reference for RealUnpack. With E/O the DFTs
// of the even/odd subsequences:
//
//	Z[k] = E[k] + i·O[k],  conj(Z[m-k]) = E[k] - i·O[k]
//	X[k]   = E[k] + w^k·O[k]
//	X[m-k] = conj(E[k] - w^k·O[k])
//
//ifdk:hotpath
func RealUnpackRef(dst, w []complex64, m int) {
	z := dst[:m]
	z0 := z[0]
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[m] = complex(real(z0)-imag(z0), 0)
	for k := 1; k <= m/2; k++ {
		a, b := z[k], z[m-k]
		e := complex(0.5*(real(a)+real(b)), 0.5*(imag(a)-imag(b))) // E[k]
		o := complex(0.5*(imag(a)+imag(b)), 0.5*(real(b)-real(a))) // O[k] = -i·(a-conj(b))/2
		wo := w[k] * o
		dst[k] = e + wo
		dst[m-k] = complex(real(e)-real(wo), imag(wo)-imag(e)) // conj(E - w·O)
	}
}

//ifdk:hotpath
func realUnpackFast(dst, w []complex64, m int) {
	z0 := dst[0]
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[m] = complex(real(z0)-imag(z0), 0)
	w = w[:m/2+1]
	for k := 1; k <= m/2; k++ {
		a, b := dst[k], dst[m-k]
		er := 0.5 * (real(a) + real(b))
		ei := 0.5 * (imag(a) - imag(b))
		or := 0.5 * (imag(a) + imag(b))
		oi := 0.5 * (real(b) - real(a))
		wk := w[k]
		wr, wi := real(wk), imag(wk)
		wor := wr*or - wi*oi
		woi := wr*oi + wi*or
		dst[k] = complex(er+wor, ei+woi)
		dst[m-k] = complex(er-wor, woi-ei)
	}
}

// RealRepack is the inverse of RealUnpack: spec[0..m] holds the half
// spectrum X, and on return spec[:m] holds the packed m-point spectrum Z
// whose inverse transform interleaves back to the real signal.
//
//ifdk:hotpath
func RealRepack(spec, w []complex64, m int) {
	if useFast {
		realRepackFast(spec, w, m)
		return
	}
	RealRepackRef(spec, w, m)
}

// RealRepackRef is the scalar reference for RealRepack:
//
//	E[k] = (X[k] + conj(X[m-k]))/2
//	O[k] = conj(w^k)·(X[k] - conj(X[m-k]))/2
//	Z[k] = E[k] + i·O[k]
//
//ifdk:hotpath
func RealRepackRef(spec, w []complex64, m int) {
	x0, xm := real(spec[0]), real(spec[m])
	spec[0] = complex(0.5*(x0+xm), 0.5*(x0-xm))
	for k := 1; k <= m/2; k++ {
		a, b := spec[k], spec[m-k]
		e := complex(0.5*(real(a)+real(b)), 0.5*(imag(a)-imag(b)))
		wo := complex(0.5*(real(a)-real(b)), 0.5*(imag(a)+imag(b))) // w^k·O[k]
		wk := w[k]
		o := complex(real(wk), -imag(wk)) * wo // conj(w^k)·(w^k·O[k])
		// Z[k] = E + i·O; Z[m-k] = conj(E) + i·conj(O).
		spec[k] = complex(real(e)-imag(o), imag(e)+real(o))
		spec[m-k] = complex(real(e)+imag(o), real(o)-imag(e))
	}
}

//ifdk:hotpath
func realRepackFast(spec, w []complex64, m int) {
	x0, xm := real(spec[0]), real(spec[m])
	spec[0] = complex(0.5*(x0+xm), 0.5*(x0-xm))
	w = w[:m/2+1]
	for k := 1; k <= m/2; k++ {
		a, b := spec[k], spec[m-k]
		er := 0.5 * (real(a) + real(b))
		ei := 0.5 * (imag(a) - imag(b))
		wor := 0.5 * (real(a) - real(b))
		woi := 0.5 * (imag(a) + imag(b))
		wk := w[k]
		wr, wi := real(wk), imag(wk)
		or := wr*wor + wi*woi // conj(w)·(w·O)
		oi := wr*woi - wi*wor
		spec[k] = complex(er-oi, ei+or)
		spec[m-k] = complex(er+oi, or-ei)
	}
}

// cmul multiplies two complex64 values in single precision. The builtin
// complex64 product promotes through float64 and rounds back; keeping every
// operation in float32 differs from it by at most one rounding step per
// component (double rounding of a·c-b·d), far inside the kernel parity
// bound, and roughly halves the cost of the butterfly.
//
//ifdk:hotpath
func cmul(a, w complex64) complex64 {
	ar, ai := real(a), imag(a)
	wr, wi := real(w), imag(w)
	return complex(ar*wr-ai*wi, ar*wi+ai*wr)
}
