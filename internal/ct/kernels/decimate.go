package kernels

// Preview-tier decimation kernels: the two O(n) loops that downsample a
// full-resolution projection into its d×d block mean — row accumulation
// across the d detector rows of a block, then the horizontal block reduce.
// Together they are the innermost work of the coarse preview reconstruction,
// so they follow the same ref/fast contract as the filtering kernels:
// identical floating-point order, bit-exact results.

// AccRow accumulates acc[i] += src[i] for i < len(src). acc must be at least
// len(src) long.
func AccRow(acc, src []float32) {
	if useFast {
		accRowFast(acc, src)
		return
	}
	AccRowRef(acc, src)
}

// AccRowRef is the scalar reference for AccRow.
func AccRowRef(acc, src []float32) {
	for u := range src {
		acc[u] += src[u]
	}
}

func accRowFast(acc, src []float32) {
	n := len(src)
	acc = acc[:n]
	u := 0
	for ; u+4 <= n; u += 4 {
		a0 := acc[u] + src[u]
		a1 := acc[u+1] + src[u+1]
		a2 := acc[u+2] + src[u+2]
		a3 := acc[u+3] + src[u+3]
		acc[u] = a0
		acc[u+1] = a1
		acc[u+2] = a2
		acc[u+3] = a3
	}
	for ; u < n; u++ {
		acc[u] += src[u]
	}
}

// BlockMean reduces acc horizontally into dst:
// dst[u] = (acc[u·d] + … + acc[u·d+d-1]) · scale for u < len(dst), summing
// left to right within each block. acc must be at least len(dst)·d long and
// d must be positive. With scale = 1/d² and acc holding the sum of d rows,
// dst is the d×d block mean.
func BlockMean(dst, acc []float32, d int, scale float32) {
	if useFast {
		blockMeanFast(dst, acc, d, scale)
		return
	}
	BlockMeanRef(dst, acc, d, scale)
}

// BlockMeanRef is the scalar reference for BlockMean.
func BlockMeanRef(dst, acc []float32, d int, scale float32) {
	for u := range dst {
		s := float32(0)
		for k := 0; k < d; k++ {
			s += acc[u*d+k]
		}
		dst[u] = s * scale
	}
}

func blockMeanFast(dst, acc []float32, d int, scale float32) {
	n := len(dst)
	acc = acc[:n*d]
	u := 0
	for ; u+4 <= n; u += 4 {
		// Each output sums its block left to right, matching the reference
		// order exactly; the four independent blocks overlap in the pipeline.
		var s0, s1, s2, s3 float32
		b0, b1, b2, b3 := u*d, (u+1)*d, (u+2)*d, (u+3)*d
		for k := 0; k < d; k++ {
			s0 += acc[b0+k]
			s1 += acc[b1+k]
			s2 += acc[b2+k]
			s3 += acc[b3+k]
		}
		dst[u] = s0 * scale
		dst[u+1] = s1 * scale
		dst[u+2] = s2 * scale
		dst[u+3] = s3 * scale
	}
	for ; u < n; u++ {
		s := float32(0)
		b := u * d
		for k := 0; k < d; k++ {
			s += acc[b+k]
		}
		dst[u] = s * scale
	}
}
