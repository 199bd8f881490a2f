package kernels

// hasAVX2 probes CPUID and XGETBV once at init: the CPU must implement AVX2
// and the OS must save/restore the YMM state (OSXSAVE set and XCR0 bits 1–2
// enabled), otherwise a VEX instruction would fault.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// hasAVX512 probes for the AVX-512 tiers (the window tier and the filter
// core, which use only AVX512F): AVX2 as above, AVX512F and AVX512VL on the
// CPU, and an OS that saves the opmask and all 32 ZMM registers (XCR0 bits
// 5–7).
func hasAVX512() bool {
	if !hasAVX2() {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xE6 != 0xE6 {
		return false
	}
	const avx512f, avx512vl = 1 << 16, 1 << 31
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx512f != 0 && ebx&avx512vl != 0
}

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0. Only valid when CPUID reports
// OSXSAVE.
func xgetbv() (eax, edx uint32)

// columnLanesAVX2 fills every lane of regs for the columns (i, j0+c),
// c < n, 1 ≤ n ≤ Lanes, fi = float32(i), on a detector of rows of rw
// samples, and reports whether every u is interior, 0 ≤ u < umax =
// float32(rh-1). j0+Lanes and, for an interior u, int(u)·rw must fit an
// int32.
//
//go:noescape
func columnLanesAVX2(regs *lanes, r *[3][4]float32, fi, umax float32, j0, n, rw int) bool

// accumColumnsAVX2 is the vector interior of accumColumnsFast: all Lanes
// lanes of regs, one depth per iteration, starting at acc[0]/sym[0] with
// fk = float32(k), for at most n depths. It returns the number of depths
// consumed, stopping in front of the first depth at which any lane's v or
// vSym is outside [0, vmax) or non-finite and leaving that depth untouched.
// Lane c gathers at row0[off+nv] and row1[off+nv] (and nv+1), off =
// regs.off[c], so every off+rw must fit an int32, and row0+off and row1+off
// must each start a detector row of rw samples, vmax = float32(rw-1): the
// range test against vmax is then also the bounds check for the gathers.
//
//go:noescape
func accumColumnsAVX2(acc, sym *float32, n int, row0, row1 *float32, regs *lanes, vmax, ry2, ry3, vm1 float32, k int) int

// accumWindowAVX512 is the vector interior of accumColumnsWindowFast for a
// tile of rows tile rows, i … i+rows-1 (rows ≤ Lanes), of the columns
// j0 … j0+n-1, tile row q's accumulator at acc[q·stride] in the window
// layout (column c's 2h floats at acc[q·stride+c·2h], its mirror half
// descending). It computes every row's column registers itself —
// columnLanesAVX2's lanes for r, float32(i+q), umax, j0, n and rw — and
// returns at once with interior false when a u of rows q … rows-1 is not
// interior. Otherwise one call runs tile row q from column c, depth kk (c <
// n), then the rows after it: a slab at least windowDepth deep in blocks of
// windowDepth depths of one column, a shallow one (shallowWindow) in groups
// of 16/(2h) columns. It returns the row, column and depth of the first
// block it could not window — at most 8 depths of a column, or a shallow
// group — having touched none of that block; (rows, 0, 0) when it finished.
// fk = float32(k0+kk) for depth kk, and every k0+kk+16 must be below 2²⁴ in
// magnitude. Column c reads the detector rows that start at row0[off] and
// row0[off+rw], off = floor(u)·rw, which must both lie inside the
// projection, and rw ≥ 2·windowDepth (2h for a shallow slab): the clamps of
// the window base and the row masks are then the bounds check of every
// load.
//
//go:noescape
func accumWindowAVX512(acc *float32, stride, h int, row0 *float32, rw int, r *[3][4]float32, umax float32, i, rows, j0, n, k0, q, c, kk int, vm1 float32) (stopQ, stopC, stopKK int, interior bool)

// addAVX2 adds src[i] into dst[i] for i < n, n a multiple of 8.
//
//go:noescape
func addAVX2(dst, src *float32, n int)
