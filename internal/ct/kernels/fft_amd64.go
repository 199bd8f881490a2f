package kernels

// difPassAVX2 and ditPassAVX2 are the vector forms of one radix-4 pass of
// difFast and ditFast over all of x: block size 4q, w the pass's three
// q-long twiddle runs w1 | w2 | w3, s the sign of the quarter turn. They
// touch x[:len(x)] and w[:3q] and nothing else, so the caller must pass
// len(w) == 3q, q a multiple of 4 and len(x) a multiple of 4q.
//
//go:noescape
func difPassAVX2(x, w []complex64, q int, s float32)

//go:noescape
func ditPassAVX2(x, w []complex64, q int, s float32)

// difTail16AVX2 is difFast's last two passes of an even-log₂n transform in
// one — block size 16 with the twiddle runs w, then adjacent quads — and
// ditHead16AVX2 ditFast's first two. difTail8AVX2 and ditHead8AVX2 are the
// same for odd log₂n: block size 8 with w, and adjacent pairs. They touch
// x[:len(x)] and w[:12] or w[:6]; len(x) must be a multiple of the block
// size.
//
//go:noescape
func difTail16AVX2(x, w []complex64, s float32)

//go:noescape
func ditHead16AVX2(x, w []complex64, s float32)

//go:noescape
func difTail8AVX2(x, w []complex64, s float32)

//go:noescape
func ditHead8AVX2(x, w []complex64, s float32)

// convolveSmall16AVX2 is difTail16AVX2, SpectralMul and ditHead16AVX2 in
// one loop over 16-element blocks: w and s are the DIF end's twiddles and
// sign, wi and si the DIT end's, gain one real per element of x.
// convolveSmall8AVX2 is the same for odd log₂n (difTail8AVX2,
// ditHead8AVX2). They touch x[:len(x)], gain[:len(x)] and w, wi[:12] or
// [:6]; len(x) must be a multiple of the block size.
//
//go:noescape
func convolveSmall16AVX2(x, w []complex64, gain []float32, wi []complex64, s, si float32)

//go:noescape
func convolveSmall8AVX2(x, w []complex64, gain []float32, wi []complex64, s, si float32)

// difPassAVX512 and ditPassAVX512 are difPassAVX2 and ditPassAVX2 over
// eight complex64 per register: q must be a multiple of 8. Each step of
// eight k also prefetches the next 64-byte line of pf into L1, until pf
// runs out: a pass makes len(x)/32 steps.
//
//go:noescape
func difPassAVX512(x, w []complex64, q int, s float32, pf []byte)

//go:noescape
func ditPassAVX512(x, w []complex64, q int, s float32, pf []byte)

// difFirstLEAVX512 is the first DIF pass of the filter's fused end, block
// size L = len(x) and quarter q = L/4, on the row CosineWeightPairLE and
// clear would have built: x[k] weighted from the payload, x[k+q] too where
// k+q < nu = len(cos0) and +0 past it, and x[k+2q] = x[k+3q] = +0, which
// are never read. It is difFast's portable butterfly with a2 = a3 = +0 —
// the sums still add a zero, the differences are the operand itself — over
// sixteen k per step: w is the pass's three runs, q must be a multiple of
// 16, and L/4 < nu ≤ L/2. It reads 4·nu bytes of src0 and src1 and nu
// floats of cos1, through masked loads past the payload's end.
//
//go:noescape
func difFirstLEAVX512(x []complex64, src0 []byte, cos0 []float32, src1 []byte, cos1 []float32, w []complex64, s float32)

// ditLastAVX512 is ditLastStore for LinePairs pairs l complex64 apart in
// src, over eight k per step, q = l/4 a multiple of 8: steps 0 … both−1
// store the outputs k and q+k, the steps after them, up to k = q, output k
// alone. Each column u goes out as one 64-byte run at dst + u·4·stride,
// non-temporal where dst and the column step are 32-byte aligned, as
// transposePairs8AVX2's. w is the pass's three runs, and the wrapper has
// checked every index it touches.
//
//go:noescape
func ditLastAVX512(dst []float32, stride int, src []complex64, l int, w []complex64, s float32, both int)

// convolveSmall64AVX512 is the small end of Convolve for even log₂n on
// AVX-512: the three smallest DIF passes, SpectralMul and the three
// smallest DIT passes in one loop over 64-element blocks, w and wi the
// tables' entries 4…63, s and si their signs. convolveSmall32AVX512 is the
// same for odd log₂n over 32-element blocks — block sizes 32 and 8 and the
// pairs — w and wi the entries 1…30. They touch x[:len(x)], gain[:len(x)]
// and w, wi[:60] or [:30]; len(x) must be a multiple of the block size.
//
//go:noescape
func convolveSmall64AVX512(x, w []complex64, gain []float32, wi []complex64, s, si float32)

//go:noescape
func convolveSmall32AVX512(x, w []complex64, gain []float32, wi []complex64, s, si float32)
