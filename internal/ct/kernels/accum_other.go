//go:build !amd64

package kernels

func hasAVX2() bool { return false }

func hasAVX512() bool { return false }

// columnLanesAVX2, accumColumnsAVX2, accumWindowAVX512 and addAVX2 are
// never reached off amd64 (useAVX2 and useAVX512 stay false); they exist so
// accumColumnsFast, accumColumnsWindowFast and AddTo compile on every
// GOARCH.
func columnLanesAVX2(regs *lanes, r *[3][4]float32, fi, umax float32, j0, n, rw int) bool {
	return false
}

func accumColumnsAVX2(acc, sym *float32, n int, row0, row1 *float32, regs *lanes, vmax, ry2, ry3, vm1 float32, k int) int {
	return 0
}

func accumWindowAVX512(acc *float32, stride, h int, row0 *float32, rw int, r *[3][4]float32, umax float32, i, rows, j0, n, k0, q, c, kk int, vm1 float32) (stopQ, stopC, stopKK int, interior bool) {
	return rows, 0, 0, false
}

func addAVX2(dst, src *float32, n int) {}
