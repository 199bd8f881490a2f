//go:build !amd64

package kernels

// cosineWeightPairLEAVX2 and transposePairs8AVX2 are never reached off amd64
// (useAVX2 stays false); they exist so the fast kernels compile on every
// GOARCH.
func cosineWeightPairLEAVX2(dst []complex64, src0 []byte, cos0 []float32, src1 []byte, cos1 []float32) {
}

func transposePairs8AVX2(dst []float32, stride int, src []complex64, l, nu int) {}
