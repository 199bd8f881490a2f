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

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0. Only valid when CPUID reports
// OSXSAVE.
func xgetbv() (eax, edx uint32)

// accumBlocksAVX2 is the vector interior of accumLinePairFast. It processes
// whole blocks of 8 consecutive k, starting at sum[0]/sym[0] with
// fk = float32(k0), and returns the number of k consumed (a multiple of 8,
// at most n&^7). It stops in front of the first block in which any lane's v
// or vSym is outside [0, vmax) or non-finite, leaving that block untouched.
// row0 and row1 point at two detector rows of at least int(vmax)+2 samples;
// the range test against vmax is therefore also the bounds check for the
// gathers. k0+n must fit in an int32.
//
//go:noescape
func accumBlocksAVX2(sum, sym *float32, n int, row0, row1 *float32, vmax, du, f, wdis, yb, ry2, ry3, vm1 float32, k0 int) int
