package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Filtering-stage kernels: the O(Nu) loops executed once per pair of
// detector rows (Alg. 1) — point-wise cosine weighting into one complex row,
// from decoded rows or straight from a projection's little-endian payload,
// the ramp multiply of its spectrum, and the store of filtered pairs into a
// transposed (V fast) block.

// CosineWeightPair cosine-weights two detector rows straight into the real
// and imaginary parts of one complex row:
// dst[i] = complex(src0[i]·cos0[i], src1[i]·cos1[i]) for i < len(src0). The
// other four operands must be at least len(src0) long.
func CosineWeightPair(dst []complex64, src0, cos0, src1, cos1 []float32) {
	if useFast {
		cosineWeightPairFast(dst, src0, cos0, src1, cos1)
		return
	}
	CosineWeightPairRef(dst, src0, cos0, src1, cos1)
}

// CosineWeightPairRef is the scalar reference for CosineWeightPair.
func CosineWeightPairRef(dst []complex64, src0, cos0, src1, cos1 []float32) {
	for u := range src0 {
		dst[u] = complex(src0[u]*cos0[u], src1[u]*cos1[u])
	}
}

func cosineWeightPairFast(dst []complex64, src0, cos0, src1, cos1 []float32) {
	n := len(src0)
	// Reslicing every operand to the common length lets the compiler drop
	// the bounds checks inside the unrolled loop.
	dst, cos0, src1, cos1 = dst[:n], cos0[:n], src1[:n], cos1[:n]
	u := 0
	for ; u+4 <= n; u += 4 {
		d0 := complex(src0[u]*cos0[u], src1[u]*cos1[u])
		d1 := complex(src0[u+1]*cos0[u+1], src1[u+1]*cos1[u+1])
		d2 := complex(src0[u+2]*cos0[u+2], src1[u+2]*cos1[u+2])
		d3 := complex(src0[u+3]*cos0[u+3], src1[u+3]*cos1[u+3])
		dst[u] = d0
		dst[u+1] = d1
		dst[u+2] = d2
		dst[u+3] = d3
	}
	for ; u < n; u++ {
		dst[u] = complex(src0[u]*cos0[u], src1[u]*cos1[u])
	}
}

// CosineWeightPairLE is CosineWeightPair reading the two detector rows as
// the little-endian float32 bytes of an encoded projection's payload, at any
// byte alignment: dst[i] = complex(x0[i]·cos0[i], x1[i]·cos1[i]) for
// i < len(cos0), with x0[i] the float32 whose bits are src0[4i:4i+4]. src0
// and src1 must hold at least 4·len(cos0) bytes, dst and cos1 at least
// len(cos0) elements. The multiplies are CosineWeightPair's, so weighting
// the bytes equals decoding them and weighting the image, bit for bit.
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

// SpectralMul scales each spectrum bin by a real gain:
// spec[k] = spec[k]·gain[k] for k < len(gain). len(spec) must be at least
// len(gain).
func SpectralMul(spec []complex64, gain []float32) {
	if useFast {
		spectralMulFast(spec, gain)
		return
	}
	SpectralMulRef(spec, gain)
}

// SpectralMulRef is the scalar reference for SpectralMul.
func SpectralMulRef(spec []complex64, gain []float32) {
	for k, g := range gain {
		v := spec[k]
		spec[k] = complex(real(v)*g, imag(v)*g)
	}
}

func spectralMulFast(spec []complex64, gain []float32) {
	n := len(gain)
	spec = spec[:n]
	k := 0
	for ; k+4 <= n; k += 4 {
		v0, g0 := spec[k], gain[k]
		v1, g1 := spec[k+1], gain[k+1]
		v2, g2 := spec[k+2], gain[k+2]
		v3, g3 := spec[k+3], gain[k+3]
		spec[k] = complex(real(v0)*g0, imag(v0)*g0)
		spec[k+1] = complex(real(v1)*g1, imag(v1)*g1)
		spec[k+2] = complex(real(v2)*g2, imag(v2)*g2)
		spec[k+3] = complex(real(v3)*g3, imag(v3)*g3)
	}
	for ; k < n; k++ {
		v, g := spec[k], gain[k]
		spec[k] = complex(real(v)*g, imag(v)*g)
	}
}
