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

func difPassAVX512(x, w []complex64, q int, s float32) {}

func ditPassAVX512(x, w []complex64, q int, s float32) {}

func convolveSmall64AVX512(x, w []complex64, gain []float32, wi []complex64, s, si float32) {}

func convolveSmall32AVX512(x, w []complex64, gain []float32, wi []complex64, s, si float32) {}
