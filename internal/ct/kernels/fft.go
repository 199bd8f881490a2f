package kernels

import (
	"fmt"
	"math"
	"math/bits"
)

// FFT kernels: whole power-of-two complex64 transforms as radix-4 passes
// (two radix-2 stages fused: 3 complex multiplies per 4 points, half the
// loads and stores), in the two orders that need no permutation between
// them — DIF takes natural order in and leaves bit-reversed order out, DIT
// takes bit-reversed order in and leaves natural order out. The ramp filter
// runs DIF → multiply by a gain stored bit-reversed → DIT and never
// reorders a row; fft.Plan32 puts one permutation in front of DIT. When
// log₂n is odd, one radix-2 pass over adjacent pairs makes up the
// difference; that pass, or else the radix-4 pass over adjacent quads, has
// unit twiddles and multiplies nothing.
//
// The direction is encoded entirely in the table FFTTwiddles builds, so a
// table cannot be run the wrong way round: tw[0] is the quarter turn
// exp(∓2πi/4) = ∓i, followed, per radix-4 pass of block size S = 4q from the
// smallest up, by three contiguous runs of q twiddles exp(∓2πi·m·k/S), k < q,
// for m = 1, 2, 3. Contiguous runs keep every load in the pass stride-1.

// FFTTwiddles builds the table DIF and DIT need for an n-point transform (n
// a power of two ≥ 1), forward or inverse. Twiddles are evaluated in float64
// and rounded once, so the only single-precision error is in the
// butterflies themselves.
func FFTTwiddles(n int, inverse bool) []complex64 {
	checkPow2(n)
	sign := -1.0
	if inverse {
		sign = 1
	}
	tw := make([]complex64, 1, twiddleLen(n))
	tw[0] = complex(0, float32(sign))
	for size := firstRadix4(n); size <= n; size <<= 2 {
		for m := 1; m <= 3; m++ {
			for k := 0; k < size/4; k++ {
				angle := sign * 2 * math.Pi * float64(m*k) / float64(size)
				tw = append(tw, complex(float32(math.Cos(angle)), float32(math.Sin(angle))))
			}
		}
	}
	return tw
}

// firstRadix4 returns the block size of the smallest radix-4 pass of an
// n-point transform: 4, or 8 when log₂n is odd and a radix-2 pass has taken
// the adjacent pairs.
func firstRadix4(n int) int {
	return 4 << (bits.TrailingZeros(uint(n)) & 1)
}

// twiddleLen is the length of FFTTwiddles(n, ·): the quarter turn plus three
// runs per radix-4 pass, whose q sum to (n − q_first)/3.
func twiddleLen(n int) int {
	return 1 + n - firstRadix4(n)/4
}

func checkPow2(n int) {
	if n < 1 || n&(n-1) != 0 {
		panic(fmt.Sprintf("kernels: transform length %d is not a power of two", n))
	}
}

// checkTransform panics unless x is a power-of-two row and tw a table of
// the length FFTTwiddles builds for it. Past this point every pass, portable
// or assembly, indexes inside x and tw.
func checkTransform(x, tw []complex64) {
	n := len(x)
	checkPow2(n)
	if len(tw) != twiddleLen(n) {
		panic(fmt.Sprintf("kernels: twiddle table of length %d, a %d-point transform needs the %d of FFTTwiddles(%d, ·)",
			len(tw), n, twiddleLen(n), n))
	}
}

// addSubPairs is the radix-2 pass over adjacent pairs that all four
// transforms run when log₂n is odd. Unit twiddles: nothing to decompose.
func addSubPairs(x []complex64) {
	for i := 0; i+2 <= len(x); i += 2 {
		a, b := x[i], x[i+1]
		x[i], x[i+1] = a+b, a-b
	}
}

// DIF transforms x in place by decimation in frequency: natural order in,
// bit-reversed order out, unscaled. tw must be FFTTwiddles(len(x), ·); a
// row that is not a power of two or a table of another length panics.
func DIF(x, tw []complex64) {
	checkTransform(x, tw)
	if useFast {
		difFast(x, tw)
		return
	}
	DIFRef(x, tw)
}

// DIT transforms x in place by decimation in time: bit-reversed order in,
// natural order out, unscaled. tw must be FFTTwiddles(len(x), ·), so
// DIT(DIF(x, forward), inverse) is len(x)·x.
func DIT(x, tw []complex64) {
	checkTransform(x, tw)
	if useFast {
		ditFast(x, tw)
		return
	}
	DITRef(x, tw)
}

// DIFRef is the scalar reference for DIF. Per block of S = 4q elements and
// k < q, with a0..a3 = x[k], x[k+q], x[k+2q], x[k+3q], j the quarter turn
// and w1, w2, w3 the pass's twiddle runs:
//
//	x[k]    = (a0+a2) + (a1+a3)
//	x[k+q]  = ((a0+a2) - (a1+a3))·w2[k]
//	x[k+2q] = ((a0-a2) + j·(a1-a3))·w1[k]
//	x[k+3q] = ((a0-a2) - j·(a1-a3))·w3[k]
func DIFRef(x, tw []complex64) {
	n := len(x)
	s := imag(tw[0])
	first := firstRadix4(n)
	for size, end := n, len(tw); size >= first; size >>= 2 {
		q := size >> 2
		w := tw[end-3*q : end]
		end -= 3 * q
		for start := 0; start < n; start += size {
			for k := 0; k < q; k++ {
				i0, i1, i2, i3 := start+k, start+k+q, start+k+2*q, start+k+3*q
				u0, u1 := x[i0]+x[i2], x[i1]+x[i3]
				v0, v1 := x[i0]-x[i2], x[i1]-x[i3]
				jv := complex(-s*imag(v1), s*real(v1))
				x[i0] = u0 + u1
				x[i1] = (u0 - u1) * w[q+k]
				x[i2] = (v0 + jv) * w[k]
				x[i3] = (v0 - jv) * w[2*q+k]
			}
		}
	}
	if first == 8 {
		addSubPairs(x)
	}
}

// DITRef is the scalar reference for DIT, the transpose of DIFRef: with
// t1, t2, t3 = a1·w2[k], a2·w1[k], a3·w3[k],
//
//	x[k]    = (a0+t1) + (t2+t3)
//	x[k+q]  = (a0-t1) + j·(t2-t3)
//	x[k+2q] = (a0+t1) - (t2+t3)
//	x[k+3q] = (a0-t1) - j·(t2-t3)
func DITRef(x, tw []complex64) {
	n := len(x)
	s := imag(tw[0])
	first := firstRadix4(n)
	if first == 8 {
		addSubPairs(x)
	}
	w := tw[1:]
	for size := first; size <= n; size <<= 2 {
		q := size >> 2
		for start := 0; start < n; start += size {
			for k := 0; k < q; k++ {
				i0, i1, i2, i3 := start+k, start+k+q, start+k+2*q, start+k+3*q
				t1, t2, t3 := x[i1]*w[q+k], x[i2]*w[k], x[i3]*w[2*q+k]
				u0, u1 := x[i0]+t1, t2+t3
				v0, v1 := x[i0]-t1, t2-t3
				jv := complex(-s*imag(v1), s*real(v1))
				x[i0] = u0 + u1
				x[i1] = v0 + jv
				x[i2] = u0 - u1
				x[i3] = v0 - jv
			}
		}
		w = w[3*q:]
	}
}

// difFast and ditFast run each pass on the vector tiers (fft_amd64.s) when
// the host has them — a whole pass per call, the two smallest fused into
// one on AVX2 — and otherwise as the loops below, which the assembly
// matches operation for operation.
func difFast(x, tw []complex64) {
	n := len(x)
	s := imag(tw[0])
	if useAVX2 && n >= 8 {
		if firstRadix4(n) == 4 {
			difLarge(x, tw, s, 16)
			difTail16AVX2(x, tw[4:16], s) // block size 16 and the pass over adjacent quads
		} else {
			difLarge(x, tw, s, 8)
			difTail8AVX2(x, tw[1:7], s) // block size 8 and addSubPairs
		}
		return
	}
	end := len(tw)
	// Every pass but the one over adjacent quads, which has unit twiddles.
	for size := n; size >= 8; size >>= 2 {
		q := size >> 2
		w := tw[end-3*q : end]
		end -= 3 * q
		w1, w2, w3 := w[:q], w[q:2*q], w[2*q:]
		for start := 0; start < n; start += size {
			// Four capped windows over the block's quarters, all resliced to
			// one length: one bounds check each here buys check-free stride-1
			// indexing below. Complex multiplies are decomposed into explicit
			// float32 arithmetic — the complex64 operator would round-trip
			// through float64.
			xa := x[start : start+q : start+q]
			xb := x[start+q : start+2*q : start+2*q][:len(xa)]
			xc := x[start+2*q : start+3*q : start+3*q][:len(xa)]
			xd := x[start+3*q : start+size : start+size][:len(xa)]
			w1, w2, w3 := w1[:len(xa)], w2[:len(xa)], w3[:len(xa)]
			for k := range xa {
				a0, a1, a2, a3 := xa[k], xb[k], xc[k], xd[k]
				u0r, u0i := real(a0)+real(a2), imag(a0)+imag(a2)
				u1r, u1i := real(a1)+real(a3), imag(a1)+imag(a3)
				v0r, v0i := real(a0)-real(a2), imag(a0)-imag(a2)
				jvr, jvi := -s*(imag(a1)-imag(a3)), s*(real(a1)-real(a3))
				xa[k] = complex(u0r+u1r, u0i+u1i)
				br, bi := u0r-u1r, u0i-u1i
				cr, ci := v0r+jvr, v0i+jvi
				dr, di := v0r-jvr, v0i-jvi
				w := w2[k]
				xb[k] = complex(br*real(w)-bi*imag(w), br*imag(w)+bi*real(w))
				w = w1[k]
				xc[k] = complex(cr*real(w)-ci*imag(w), cr*imag(w)+ci*real(w))
				w = w3[k]
				xd[k] = complex(dr*real(w)-di*imag(w), dr*imag(w)+di*real(w))
			}
		}
	}
	if firstRadix4(n) == 8 {
		addSubPairs(x)
		return
	}
	for i := 0; i+4 <= n; i += 4 {
		y := x[i : i+4 : i+4]
		a0, a1, a2, a3 := y[0], y[1], y[2], y[3]
		u0, u1, v0 := a0+a2, a1+a3, a0-a2
		jv := complex(-s*(imag(a1)-imag(a3)), s*(real(a1)-real(a3)))
		y[0], y[1], y[2], y[3] = u0+u1, u0-u1, v0+jv, v0-jv
	}
}

func ditFast(x, tw []complex64) {
	n := len(x)
	s := imag(tw[0])
	first := firstRadix4(n)
	if useAVX2 && n >= 8 {
		if first == 4 {
			ditHead16AVX2(x, tw[4:16], s) // the pass over adjacent quads and the next
			ditLarge(x, tw, s, 16)
		} else {
			ditHead8AVX2(x, tw[1:7], s) // addSubPairs and the next pass
			ditLarge(x, tw, s, 8)
		}
		return
	}
	w := tw[1:]
	switch {
	case first == 8:
		addSubPairs(x)
	case n >= 4:
		for i := 0; i+4 <= n; i += 4 {
			y := x[i : i+4 : i+4]
			a0, a1, a2, a3 := y[0], y[1], y[2], y[3]
			u0, u1, v0 := a0+a1, a2+a3, a0-a1
			jv := complex(-s*(imag(a2)-imag(a3)), s*(real(a2)-real(a3)))
			y[0], y[1], y[2], y[3] = u0+u1, v0+jv, u0-u1, v0-jv
		}
		first, w = 16, w[3:]
	}
	for size := first; size <= n; size <<= 2 {
		q := size >> 2
		wp := w[:3*q]
		w = w[3*q:]
		w1, w2, w3 := wp[:q], wp[q:2*q], wp[2*q:]
		for start := 0; start < n; start += size {
			// Same windows and float32 decomposition as difFast.
			xa := x[start : start+q : start+q]
			xb := x[start+q : start+2*q : start+2*q][:len(xa)]
			xc := x[start+2*q : start+3*q : start+3*q][:len(xa)]
			xd := x[start+3*q : start+size : start+size][:len(xa)]
			w1, w2, w3 := w1[:len(xa)], w2[:len(xa)], w3[:len(xa)]
			for k := range xa {
				a0, a1, a2, a3 := xa[k], xb[k], xc[k], xd[k]
				wa, wb, wc := w2[k], w1[k], w3[k]
				t1r := real(a1)*real(wa) - imag(a1)*imag(wa)
				t1i := real(a1)*imag(wa) + imag(a1)*real(wa)
				t2r := real(a2)*real(wb) - imag(a2)*imag(wb)
				t2i := real(a2)*imag(wb) + imag(a2)*real(wb)
				t3r := real(a3)*real(wc) - imag(a3)*imag(wc)
				t3i := real(a3)*imag(wc) + imag(a3)*real(wc)
				u0r, u0i := real(a0)+t1r, imag(a0)+t1i
				v0r, v0i := real(a0)-t1r, imag(a0)-t1i
				u1r, u1i := t2r+t3r, t2i+t3i
				jvr, jvi := -s*(t2i-t3i), s*(t2r-t3r)
				xa[k] = complex(u0r+u1r, u0i+u1i)
				xb[k] = complex(v0r+jvr, v0i+jvi)
				xc[k] = complex(u0r-u1r, u0i-u1i)
				xd[k] = complex(v0r-jvr, v0i-jvi)
			}
		}
	}
}

// difLarge runs difFast's vector passes over the blocks larger than the
// small end's, whole row first: those of quarter q ≥ block, block the
// small end's size (16 or 64 for even log₂n, 8 or 32 for odd). Every such
// q is at least 8, so on AVX-512 hosts each pass runs eight complex64 per
// register, elsewhere four. The runs of the pass over blocks of 4q lie
// between the tables of q and 4q points: FFTTwiddles(m, ·) is a prefix of
// FFTTwiddles(n, ·) when log₂m and log₂n share their parity.
func difLarge(x, tw []complex64, s float32, block int) {
	for q := len(x) >> 2; q >= block; q >>= 2 {
		w := tw[twiddleLen(q):twiddleLen(4*q)]
		if onAVX512() {
			difPassAVX512(x, w, q, s)
		} else {
			difPassAVX2(x, w, q, s)
		}
	}
}

// ditLarge runs ditFast's vector passes above the small end of size
// block, quarters q = block, 4·block, … up to len(x), as difLarge does.
func ditLarge(x, tw []complex64, s float32, block int) {
	for q := block; 4*q <= len(x); q <<= 2 {
		w := tw[twiddleLen(q):twiddleLen(4*q)]
		if onAVX512() {
			ditPassAVX512(x, w, q, s)
		} else {
			ditPassAVX2(x, w, q, s)
		}
	}
}

// Convolve runs the ramp filter's spectrum path over x in place: DIF with
// fwd, every bin times its real gain (stored in DIF's bit-reversed bin
// order), DIT with inv. It is DIF, SpectralMul and DIT called in turn, bit
// for bit on every tier. On the vector tiers the smallest DIF passes, the
// gain and the smallest DIT passes act on the same block, so they run as
// one loop over blocks held in registers and the spectrum is never stored
// between the transforms: two passes each way over blocks of 16 (even
// log₂n) or 8 (odd) on AVX2, three over blocks of 64 or 32 on AVX-512.
// fwd and inv must be FFTTwiddles(len(x), ·) and gain len(x) long.
func Convolve(x, fwd []complex64, gain []float32, inv []complex64) {
	checkTransform(x, fwd)
	checkTransform(x, inv)
	if len(gain) != len(x) {
		panic(fmt.Sprintf("kernels: %d gains for a %d-point spectrum", len(gain), len(x)))
	}
	if useFast {
		convolveFast(x, fwd, gain, inv)
		return
	}
	DIFRef(x, fwd)
	SpectralMulRef(x, gain)
	DITRef(x, inv)
}

// convolveFast picks the small end by the parity of log₂n and the tier;
// rows shorter than the AVX-512 block take the AVX2 one. Each small end
// gets the tables below its block: entries 4… for even log₂n, whose first
// run (the quads') is all ones, 1… for odd.
func convolveFast(x, fwd []complex64, gain []float32, inv []complex64) {
	n := len(x)
	if !useAVX2 || n < 8 {
		difFast(x, fwd)
		spectralMulFast(x, gain)
		ditFast(x, inv)
		return
	}
	s, si := imag(fwd[0]), imag(inv[0])
	even := firstRadix4(n) == 4
	switch {
	case even && onAVX512() && n >= 64:
		difLarge(x, fwd, s, 64)
		convolveSmall64AVX512(x, fwd[4:64], gain, inv[4:64], s, si)
		ditLarge(x, inv, si, 64)
	case !even && onAVX512() && n >= 32:
		difLarge(x, fwd, s, 32)
		convolveSmall32AVX512(x, fwd[1:31], gain, inv[1:31], s, si)
		ditLarge(x, inv, si, 32)
	case even:
		difLarge(x, fwd, s, 16)
		convolveSmall16AVX2(x, fwd[4:16], gain, inv[4:16], s, si)
		ditLarge(x, inv, si, 16)
	default:
		difLarge(x, fwd, s, 8)
		convolveSmall8AVX2(x, fwd[1:7], gain, inv[1:7], s, si)
		ditLarge(x, inv, si, 8)
	}
}

// RealUnpack performs the O(n) "realft" unpack after the half-length
// complex transform of a packed real signal: dst[:m] holds Z = FFT(z) with
// z[j] = x[2j] + i·x[2j+1], and on return dst[0..m] holds the half spectrum
// X[0..m]. w are the unpack twiddles exp(-2πi k/n) for k ≤ m/2 (n = 2m).
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
