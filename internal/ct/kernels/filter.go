package kernels

// Filtering-stage kernels: the two O(Nu) loops executed once per pair of
// detector rows (Alg. 1) — point-wise cosine weighting into one complex row
// and the ramp multiply of its spectrum.

// CosineWeightPair cosine-weights two detector rows straight into the real
// and imaginary parts of one complex row:
// dst[i] = complex(src0[i]·cos0[i], src1[i]·cos1[i]) for i < len(src0). The
// other four operands must be at least len(src0) long.
//
//ifdk:hotpath
func CosineWeightPair(dst []complex64, src0, cos0, src1, cos1 []float32) {
	if useFast {
		cosineWeightPairFast(dst, src0, cos0, src1, cos1)
		return
	}
	CosineWeightPairRef(dst, src0, cos0, src1, cos1)
}

// CosineWeightPairRef is the scalar reference for CosineWeightPair.
//
//ifdk:hotpath
func CosineWeightPairRef(dst []complex64, src0, cos0, src1, cos1 []float32) {
	for u := range src0 {
		dst[u] = complex(src0[u]*cos0[u], src1[u]*cos1[u])
	}
}

//ifdk:hotpath
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

// SpectralMul scales each spectrum bin by a real gain:
// spec[k] = spec[k]·gain[k] for k < len(gain). len(spec) must be at least
// len(gain).
//
//ifdk:hotpath
func SpectralMul(spec []complex64, gain []float32) {
	if useFast {
		spectralMulFast(spec, gain)
		return
	}
	SpectralMulRef(spec, gain)
}

// SpectralMulRef is the scalar reference for SpectralMul.
//
//ifdk:hotpath
func SpectralMulRef(spec []complex64, gain []float32) {
	for k, g := range gain {
		v := spec[k]
		spec[k] = complex(real(v)*g, imag(v)*g)
	}
}

//ifdk:hotpath
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
