// Package kernels holds the innermost loops of the reconstruction pipeline
// — cosine weighting, the spectral ramp multiply, the radix-4 FFT passes,
// and the back-projection per-voxel inner product — in two interchangeable
// forms:
//
//   - a scalar *reference* implementation (the exact loops the pipeline ran
//     before this package existed), and
//   - a *fast* implementation. For every kernel that is portable Go
//     restructured to keep the inner loop free of bounds checks and function
//     calls: slice windows are hoisted once per loop, access is stride-1, and
//     bodies are 4×-unrolled to expose independent operations to the
//     scheduler. The Go compiler does not auto-vectorize, so the one loop
//     that dominates a job — the interior of AccumLinePair — additionally
//     has a hand-written AVX2 tier (accum_amd64.s) that the portable loop
//     hands whole 8-voxel blocks to when the CPU and OS support it (ISA
//     reports which is live). Other hosts run the portable loop alone.
//
// Every fast kernel performs the same floating-point operations in the same
// order as its reference — the AVX2 tier included: separate multiplies and
// adds, no FMA — so CosineWeightPair, SpectralMul, ColumnGeom and
// AccumLinePair are bit-identical across reference, portable and AVX2
// (property tests assert exact equality, far inside the required ≤1e-5
// parity bound). Border
// and non-finite coordinates in the back-projection kernel fall back to the
// reference formula per sample, so NaN/Inf propagate identically.
//
// Production code always runs the fast kernels; the references stay as the
// ground truth the parity tests diff against and the `ref` leg of this
// package's benchmarks. Within the fast set the instruction tier is probed
// once at init and is not configurable.
package kernels

// useFast routes every dispatching kernel to its fast implementation. Only
// tests clear it (export_test.go), to run whole pipelines on the references.
var useFast = true

// useAVX2 routes the interior of accumLinePairFast through the assembly
// tier. It is written once, here, from CPUID/XGETBV; only tests flip it.
var useAVX2 = hasAVX2()

// ISA reports the instruction tier the fast back-projection kernel runs on
// this host: "avx2" or "go" (the portable loop).
func ISA() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}
