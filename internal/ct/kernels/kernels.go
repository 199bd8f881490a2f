// Package kernels holds the innermost loops of the reconstruction pipeline
// — cosine weighting (from decoded rows, CosineWeightPair, or straight from
// a projection's little-endian payload bytes, CosineWeightPairLE), the
// spectral ramp multiply, the radix-4 FFT passes and the whole spectrum
// path they make with it (Convolve: DIF → gain → DIT), the store of
// filtered row pairs into the transposed block (TransposePairs), and the
// back-projection per-voxel inner product — in two interchangeable forms:
//
//   - a scalar *reference* implementation (the exact loops the pipeline ran
//     before this package existed), and
//   - a *fast* implementation. For every kernel that is portable Go
//     restructured to keep the inner loop free of bounds checks and function
//     calls: slice windows are hoisted once per loop, access is stride-1, and
//     bodies are 4×-unrolled to expose independent operations to the
//     scheduler. The Go compiler does not auto-vectorize, so the loops that
//     dominate a job have a hand-written AVX2 tier the portable loop hands
//     work to when the CPU and OS support it (ISA reports which is live):
//     the interior of AccumColumns, eight voxel columns per register
//     walking the slab depth (accum_amd64.s); the radix-4 passes of DIF and
//     DIT, four complex64 per register, and Convolve's small end, where the
//     two smallest passes of each transform and the gain act on one block
//     held in registers (fft_amd64.s); and CosineWeightPairLE and
//     TransposePairs, which only move data (filter_amd64.s). On AVX-512
//     hosts two kernels gain a wider tier: AccumColumnsWindow, the slab
//     driver's kernel for slabs at least 16 deep, puts 16 depths of one
//     column in a register and reads their taps from a 32-sample detector
//     window through two-source permutes instead of gathers
//     (accum_amd64.s); and the filter core — the radix-4 passes of DIF and
//     DIT and Convolve, the one spectrum path the filter's ApplyEncoded,
//     ApplyInto and Sweep share — runs eight complex64 per register, with
//     Convolve's small end taking the three smallest passes of each
//     transform and the gain on blocks of 64 (32 for odd log₂n) held in
//     registers (fft_amd64.s). Other hosts run the portable loops alone.
//
// Every fast kernel performs the same floating-point operations in the same
// order as its reference — the AVX2 and AVX-512 tiers included: separate
// multiplies and adds, no FMA — so CosineWeightPair, CosineWeightPairLE
// (which also equals CosineWeightPair on the decoded rows), SpectralMul,
// ColumnGeom, AccumColumns and AccumColumnsWindow (which also equals
// AccumColumns) are bit-identical across reference, portable, AVX2 and
// AVX-512, DIF, DIT and Convolve across portable, AVX2 and AVX-512, and
// Convolve on every tier to DIF, SpectralMul and DIT on that tier;
// TransposePairs copies bits (tests
// assert exact equality, far inside the required ≤1e-5 parity bound):
// which tier a host runs never shows in a volume. Border and non-finite
// coordinates in the back-projection kernels fall back to the reference
// formula per sample, so NaN/Inf propagate identically. The one pair that is not bit-identical is
// reference ↔ fast for DIF, DIT, RealUnpack and RealRepack: the reference
// multiplies with the complex64 operator, which rounds through float64, the
// fast form in explicit float32, so they agree to 1e-6 of the peak.
//
// Production code always runs the fast kernels; the references stay as the
// ground truth the parity tests diff against and the `ref` leg of this
// package's benchmarks. Within the fast set the instruction tier is probed
// once at init and is not configurable.
package kernels

// useFast routes every dispatching kernel to its fast implementation. Only
// tests clear it (export_test.go), to run whole pipelines on the references.
var useFast = true

// useAVX2 routes the interior of accumColumnsFast, the passes of difFast,
// ditFast and convolveFast, and the loops of cosineWeightPairLEFast and
// TransposePairs through the assembly tier. It is written once, here, from
// CPUID/XGETBV; only tests flip it.
var useAVX2 = hasAVX2()

// useAVX512 adds the AVX-512 tiers on top of the AVX2 ones (onAVX512). It
// is written once, here, from CPUID/XGETBV; only tests flip it.
var useAVX512 = hasAVX512()

// onAVX512 reports whether the AVX-512 tiers run: the window interior of
// AccumColumnsWindow and the filter core's passes and small ends. Both
// hand work to the AVX2 tier as well — the window tier its column
// registers, the filter rows shorter than its small end — so they need it
// on.
func onAVX512() bool { return useAVX2 && useAVX512 }

// ISA reports the instruction tier the fast back-projection and FFT kernels
// run on this host: "avx512" (the back-projection's window tier and the
// filter core — the radix-4 passes and Convolve's small end — with the
// other kernels on AVX2), "avx2", or "go" (the portable loops).
func ISA() string {
	switch {
	case onAVX512():
		return "avx512"
	case useAVX2:
		return "avx2"
	}
	return "go"
}
