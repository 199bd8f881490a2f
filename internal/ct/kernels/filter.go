package kernels

// Filtering-stage kernels: the two O(Nu) loops executed once per detector
// row (Alg. 1) — point-wise cosine weighting and the half-spectrum ramp
// multiply.

// CosineWeight computes dst[i] = src[i]·cos[i] for i < len(src). dst and
// cos must be at least len(src) long; dst may alias src.
//
//ifdk:hotpath
func CosineWeight(dst, src, cos []float32) {
	if useFast {
		cosineWeightFast(dst, src, cos)
		return
	}
	CosineWeightRef(dst, src, cos)
}

// CosineWeightRef is the scalar reference for CosineWeight.
//
//ifdk:hotpath
func CosineWeightRef(dst, src, cos []float32) {
	for u := range src {
		dst[u] = src[u] * cos[u]
	}
}

//ifdk:hotpath
func cosineWeightFast(dst, src, cos []float32) {
	n := len(src)
	// Reslicing all three operands to the common length lets the compiler
	// drop the bounds checks inside the unrolled loop.
	dst = dst[:n]
	cos = cos[:n]
	u := 0
	for ; u+4 <= n; u += 4 {
		d0 := src[u] * cos[u]
		d1 := src[u+1] * cos[u+1]
		d2 := src[u+2] * cos[u+2]
		d3 := src[u+3] * cos[u+3]
		dst[u] = d0
		dst[u+1] = d1
		dst[u+2] = d2
		dst[u+3] = d3
	}
	for ; u < n; u++ {
		dst[u] = src[u] * cos[u]
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
