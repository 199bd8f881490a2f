package kernels

// HasAVX2, HasAVX512, SetAVX2, SetAVX512 and UseRef let tests — here and
// in the external test package, which runs whole back-projections — switch
// the assembly tiers on and off and route every dispatching kernel to its
// reference. The window tier runs only while both are on.
var (
	HasAVX2   = hasAVX2
	HasAVX512 = hasAVX512
)

func SetAVX2(on bool) (restore func()) {
	prev := useAVX2
	useAVX2 = on
	return func() { useAVX2 = prev }
}

func SetAVX512(on bool) (restore func()) {
	prev := useAVX512
	useAVX512 = on
	return func() { useAVX512 = prev }
}

// WindowAt is where AccumColumnsWindow's accumulator holds column c's
// depth kk of 2h: the lower slab for kk < h, the mirror of depth kk-h past.
func WindowAt(h, c, kk int) int {
	lo, ls, hi, hs := windowMajor.place(h, c)
	if kk < h {
		return lo + kk*ls
	}
	return hi + (kk-h)*hs
}

func UseRef() (restore func()) {
	useFast = false
	return func() { useFast = true }
}

// FirstPassLE runs the first DIF pass of ConvolvePairLE alone on an
// AVX-512 host, fused or as the chain the fusion replaces —
// CosineWeightPairLE, clear and difPassAVX512 over blocks of len(x) — so
// that a test can compare the two before the rest of the transform mixes
// their zeros. len(x) must be at least 64.
func FirstPassLE(x []complex64, src0 []byte, cos0 []float32, src1 []byte, cos1 []float32, fwd []complex64, fused bool) {
	q := len(x) / 4
	w, s := fwd[twiddleLen(q):], imag(fwd[0])
	if fused {
		difFirstLEAVX512(x, src0, cos0, src1, cos1, w, s)
		return
	}
	CosineWeightPairLE(x, src0, cos0, src1, cos1)
	clear(x[len(cos0):])
	difPassAVX512(x, w, q, s, nil)
}
