package kernels

// cosineWeightPairLEAVX2 is the vector loop of cosineWeightPairLEFast over
// the first len(cos0) elements, a multiple of 8; dst, src1 and cos1 must
// hold as many (src0 and src1 four bytes each).
//
//go:noescape
func cosineWeightPairLEAVX2(dst []complex64, src0 []byte, cos0 []float32, src1 []byte, cos1 []float32)

// transposePairs8AVX2 is TransposePairs' vector loop for LinePairs whole
// pairs over the first nu columns, a multiple of 4; the wrapper has checked
// every index it touches.
//
//go:noescape
func transposePairs8AVX2(dst []float32, stride int, src []complex64, l, nu int)
