//go:build !amd64

package kernels

// difPassAVX2 and ditPassAVX2 are never reached off amd64 (useAVX2 stays
// false); they exist so difFast and ditFast compile on every GOARCH.
func difPassAVX2(x, w []complex64, q int, s float32) {}

func ditPassAVX2(x, w []complex64, q int, s float32) {}

func difTail16AVX2(x, w []complex64, s float32) {}

func ditHead16AVX2(x, w []complex64, s float32) {}

func difTail8AVX2(x, w []complex64, s float32) {}

func ditHead8AVX2(x, w []complex64, s float32) {}

func convolveSmall16AVX2(x, w []complex64, gain []float32, wi []complex64, s, si float32) {}

func convolveSmall8AVX2(x, w []complex64, gain []float32, wi []complex64, s, si float32) {}

func difPassAVX512(x, w []complex64, q int, s float32, pf []byte) {}

func ditPassAVX512(x, w []complex64, q int, s float32, pf []byte) {}

func difFirstLEAVX512(x []complex64, src0 []byte, cos0 []float32, src1 []byte, cos1 []float32, w []complex64, s float32) {
}

func ditLastAVX512(dst []float32, stride int, src []complex64, l int, w []complex64, s float32, both int) {
}

func convolveSmall64AVX512(x, w []complex64, gain []float32, wi []complex64, s, si float32) {}

func convolveSmall32AVX512(x, w []complex64, gain []float32, wi []complex64, s, si float32) {}
