package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Filtering-stage kernels: the O(Nu) loops executed once per pair of
// detector rows (Alg. 1) — point-wise cosine weighting into one complex row
// straight from a projection's little-endian payload, the ramp multiply of its spectrum, and the store of filtered pairs into a
// transposed (V fast) block — and the pipeline's filter step that fuses the
// weighting and the store into the transform's end passes.

// CosineWeightPairLE cosine-weights two detector rows, read as the
// little-endian float32 bytes of an encoded projection's payload at any
// byte alignment, straight into the real and imaginary parts of one complex
// row: dst[i] = complex(x0[i]·cos0[i], x1[i]·cos1[i]) for i < len(cos0),
// with x0[i] the float32 whose bits are src0[4i:4i+4]. src0 and src1 must
// hold at least 4·len(cos0) bytes, dst and cos1 at least len(cos0)
// elements. Each value is one float32 multiply, so weighting the bytes
// equals decoding them and weighting the rows, bit for bit.
func CosineWeightPairLE(dst []complex64, src0 []byte, cos0 []float32, src1 []byte, cos1 []float32) {
	if useFast {
		cosineWeightPairLEFast(dst, src0, cos0, src1, cos1)
		return
	}
	CosineWeightPairLERef(dst, src0, cos0, src1, cos1)
}

// CosineWeightPairLERef is the scalar reference for CosineWeightPairLE.
func CosineWeightPairLERef(dst []complex64, src0 []byte, cos0 []float32, src1 []byte, cos1 []float32) {
	for u := range cos0 {
		dst[u] = complex(le32(src0[4*u:])*cos0[u], le32(src1[4*u:])*cos1[u])
	}
}

// le32 decodes one little-endian float32; on a little-endian host the
// compiler makes it a plain load.
func le32(b []byte) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(b)) }

func cosineWeightPairLEFast(dst []complex64, src0 []byte, cos0 []float32, src1 []byte, cos1 []float32) {
	n := len(cos0)
	// Reslicing every operand to the common length panics here, before the
	// assembly is handed a short slice, and drops the checks in the loops.
	dst, src0, src1, cos1 = dst[:n], src0[:4*n], src1[:4*n], cos1[:n]
	u := 0
	if useAVX2 && n >= 8 {
		u = n &^ 7
		cosineWeightPairLEAVX2(dst[:u], src0, cos0[:u], src1, cos1)
	}
	for ; u+4 <= n; u += 4 {
		a, b := src0[4*u:4*u+16], src1[4*u:4*u+16]
		c0, c1, d := cos0[u:u+4], cos1[u:u+4], dst[u:u+4]
		d0 := complex(le32(a[0:])*c0[0], le32(b[0:])*c1[0])
		d1 := complex(le32(a[4:])*c0[1], le32(b[4:])*c1[1])
		d2 := complex(le32(a[8:])*c0[2], le32(b[8:])*c1[2])
		d3 := complex(le32(a[12:])*c0[3], le32(b[12:])*c1[3])
		d[0], d[1], d[2], d[3] = d0, d1, d2, d3
	}
	for ; u < n; u++ {
		dst[u] = complex(le32(src0[4*u:])*cos0[u], le32(src1[4*u:])*cos1[u])
	}
}

// LinePairs is the number of row pairs whose 16 float32 fill one 64-byte
// line of a transposed column: the run TransposePairs stores with the
// AVX2 tier.
const LinePairs = 8

// TransposePairs stores filtered row pairs into a transposed block (V
// fast, stride values per detector column): pair p, src[p·l : p·l+nu],
// holds rows 2p and 2p+1 as the real and imaginary parts at each u, and
// goes to dst[u·stride+2p] and dst[u·stride+2p+1] for u < nu. Only the
// first rows rows are written: when rows is odd the last pair stores its
// real part alone. Each column's rows values are one contiguous run, so
// LinePairs pairs fill a whole 64-byte line where the block is aligned to
// it: the block is written a line at a time, never a value at a time at a
// 4·stride-byte step, where every store of a column competes for the same
// two L1 sets (on AVX2, with non-temporal stores where the runs are
// aligned). It copies bits; nothing is rounded.
func TransposePairs(dst []float32, stride int, src []complex64, l, nu, rows int) {
	pairs := (rows + 1) / 2
	if rows < 0 || nu < 0 || nu > l || nu > 0 && pairs > 0 &&
		(stride < rows || len(src) < (pairs-1)*l+nu || len(dst) < (nu-1)*stride+rows) {
		panic(fmt.Sprintf("kernels: %d rows of %d columns (pairs %d apart in %d) do not fit a block of %d at stride %d",
			rows, nu, l, len(src), len(dst), stride))
	}
	u := 0
	if useAVX2 && rows == 2*LinePairs && nu >= 4 {
		u = nu &^ 3
		transposePairs8AVX2(dst, stride, src, l, u)
	}
	for ; u < nu; u++ {
		col := dst[u*stride : u*stride+rows]
		p := 0
		for ; 2*p+1 < rows; p++ {
			c := src[p*l+u]
			col[2*p], col[2*p+1] = real(c), imag(c)
		}
		if p < pairs {
			col[2*p] = real(src[p*l+u])
		}
	}
}

// ConvolvePairLE and TransposeConvolved are the pipeline's filter step for
// a projection's row pairs with both ends fused into the transform.
// ConvolvePairLE(x, src0, cos0, src1, cos1, fwd, gain, inv, next) followed,
// for the LinePairs pairs of a group, by TransposeConvolved(dst, stride,
// src, l, nu, rows, inv) equals CosineWeightPairLE into x[:nu], clear(x[nu:]),
// Convolve(x, fwd, gain, inv) and TransposePairs, bit for bit, on every tier
// (nu = len(cos0), l = len(x)). Where lastDeferred holds, among other
// things that l ≥ 2·nu, so that the upper half of the padded row is zero:
//
//   - ConvolvePairLE weights the payload bytes inside the first DIF pass
//     (block size l, quarter q = l/4), whose inputs x[k+2q] and x[k+3q] are
//     the zero half: it never loads, clears or rereads it. A pruned
//     a − (+0) is dropped, since it is a exactly; a pruned a + (+0) still
//     adds a zero, since −0 + (+0) is +0.
//   - The last DIT pass is left to TransposeConvolved, which computes only
//     the nu outputs TransposePairs keeps, x[k] and x[k+q] for k + q < nu,
//     and stores them straight into the transposed block.
//
// On AVX-512 hosts both ends are assembly and the stores are
// TransposePairs' 64-byte column runs (non-temporal where aligned). While
// the pair is transformed, next — the payload of the pair after it — is
// prefetched, one line per step of the large passes between the two ends,
// so that its weighting does not wait on memory: the hardware prefetcher
// does not cross into the next 4 KiB page, and at nu = 512 a pair's two
// rows are a whole page. The portable and AVX2 tiers and the shapes whose
// end passes fall inside a small end run the four calls above.
func ConvolvePairLE(x []complex64, src0 []byte, cos0 []float32, src1 []byte, cos1 []float32, fwd []complex64, gain []float32, inv []complex64, next []byte) {
	checkTransform(x, fwd)
	checkTransform(x, inv)
	n, nu := len(x), len(cos0)
	if len(gain) != n || nu > n {
		panic(fmt.Sprintf("kernels: %d gains and %d values for a %d-point row", len(gain), nu, n))
	}
	// Reslicing panics here, before the assembly is handed a short operand.
	src0, src1, cos1 = src0[:4*nu], src1[:4*nu], cos1[:nu]
	if !lastDeferred(n, nu) {
		CosineWeightPairLE(x, src0, cos0, src1, cos1)
		clear(x[nu:])
		Convolve(x, fwd, gain, inv)
		return
	}
	q := n / 4
	s, si := imag(fwd[0]), imag(inv[0])
	// share is the part of next the coming pass prefetches: a line per
	// step of 32 elements.
	share := func() []byte {
		pf := next[:min(2*n, len(next))]
		next = next[len(pf):]
		return pf
	}
	difFirstLEAVX512(x, src0, cos0, src1, cos1, fwd[twiddleLen(q):], s)
	block := smallEnd512(n)
	for m := q / 4; m >= block; m >>= 2 {
		difPassAVX512(x, fwd[twiddleLen(m):twiddleLen(4*m)], m, s, share())
	}
	convolveSmall512(x, fwd, gain, inv, s, si)
	for m := block; m < q; m <<= 2 {
		ditPassAVX512(x, inv[twiddleLen(m):twiddleLen(4*m)], m, si, share())
	}
}

// TransposeConvolved is the last end of ConvolvePairLE: for rows rows,
// (rows+1)/2 pairs l complex64 apart in src that ConvolvePairLE left, it
// finishes the inverse transform where that was left to it and stores the
// first nu values of each pair into dst as TransposePairs does. l, nu and
// inv must be the ones ConvolvePairLE ran with.
func TransposeConvolved(dst []float32, stride int, src []complex64, l, nu, rows int, inv []complex64) {
	if !lastDeferred(l, nu) {
		TransposePairs(dst, stride, src, l, nu, rows)
		return
	}
	checkPow2(l)
	pairs := (rows + 1) / 2
	if len(inv) != twiddleLen(l) || rows < 0 || pairs > 0 &&
		(stride < rows || len(src) < pairs*l || len(dst) < (nu-1)*stride+rows) {
		panic(fmt.Sprintf("kernels: %d rows of %d columns (pairs %d apart in %d, table %d) do not fit a block of %d at stride %d",
			rows, nu, l, len(src), len(inv), len(dst), stride))
	}
	q := l / 4
	w, s := inv[twiddleLen(q):], imag(inv[0])
	if rows == 2*LinePairs {
		both := (nu - q) / 8
		ditLastAVX512(dst, stride, src, l, w, s, both)
		ditLastStore(dst, stride, src, l, q+8*both, nu, rows, w, s)
		return
	}
	for p := 0; p < pairs; p++ {
		ditPassAVX512(src[p*l:(p+1)*l], w, q, s, nil)
	}
	TransposePairs(dst, stride, src, l, nu, rows)
}

// lastDeferred reports whether ConvolvePairLE fuses the ends of an n-point
// row holding nu values, leaving the last DIT pass to TransposeConvolved:
// on AVX-512 hosts, when the row's upper half is zero and its lower half
// more than a quarter values (L/4 < nu ≤ L/2, as for every filter row), and
// the first and last passes are larger than the small end — n ≥ 256 for
// even log₂n, n ≥ 128 for odd. The portable and AVX2 tiers never defer.
func lastDeferred(n, nu int) bool {
	return useFast && onAVX512() && 4*nu > n && 2*nu <= n && n >= 4*smallEnd512(n)
}

// ditLastStore is the last DIT pass of l-point rows, block size l and
// quarter q = l/4, for the pairs l complex64 apart in src, computing only
// the outputs of columns u0 ≤ u < u1 (u1 ≤ 2q) and storing them as
// TransposePairs does: x[u] = (a0+t1) + (t2+t3) for u < q, and x[u] =
// (a0−t1) + j·(t2−t3) with k = u − q above. w is the pass's three twiddle
// runs, s the quarter turn's sign; the arithmetic is ditFast's portable
// loop's, and ditLastAVX512 hands it the columns past its last whole step.
func ditLastStore(dst []float32, stride int, src []complex64, l, u0, u1, rows int, w []complex64, s float32) {
	q := l / 4
	for u := u0; u < u1; u++ {
		k := u % q
		w1, w2, w3 := w[k], w[q+k], w[2*q+k]
		col := dst[u*stride : u*stride+rows]
		for p := 0; 2*p < rows; p++ {
			x := src[p*l : p*l+l]
			a0, a1, a2, a3 := x[k], x[k+q], x[k+2*q], x[k+3*q]
			t1r := float32(real(a1)*real(w2)) - float32(imag(a1)*imag(w2))
			t1i := float32(real(a1)*imag(w2)) + float32(imag(a1)*real(w2))
			t2r := float32(real(a2)*real(w1)) - float32(imag(a2)*imag(w1))
			t2i := float32(real(a2)*imag(w1)) + float32(imag(a2)*real(w1))
			t3r := float32(real(a3)*real(w3)) - float32(imag(a3)*imag(w3))
			t3i := float32(real(a3)*imag(w3)) + float32(imag(a3)*real(w3))
			var re, im float32
			if u < q {
				u0r, u0i := real(a0)+t1r, imag(a0)+t1i
				re, im = u0r+(t2r+t3r), u0i+(t2i+t3i)
			} else {
				v0r, v0i := real(a0)-t1r, imag(a0)-t1i
				re, im = v0r+float32(-s*(t2i-t3i)), v0i+float32(s*(t2r-t3r))
			}
			col[2*p] = re
			if 2*p+1 < rows {
				col[2*p+1] = im
			}
		}
	}
}

// SpectralMul scales each spectrum bin by a real gain:
// spec[k] = spec[k]·gain[k] for k < len(gain). len(spec) must be at least
// len(gain). Convolve's portable tier and reference chain run it between
// the transforms; the vector tiers do the same products in their small
// ends.
func SpectralMul(spec []complex64, gain []float32) {
	for k, g := range gain {
		v := spec[k]
		spec[k] = complex(real(v)*g, imag(v)*g)
	}
}
