//go:build !amd64

package kernels

func hasAVX2() bool { return false }

// columnLanesAVX2 and accumColumnsAVX2 are never reached off amd64
// (useAVX2 stays false); they exist so accumColumnsFast compiles on every
// GOARCH.
func columnLanesAVX2(regs *lanes, r *[3][4]float32, fi, umax float32, j0, n, rw int) bool {
	return false
}

func accumColumnsAVX2(acc, sym *float32, n int, row0, row1 *float32, regs *lanes, vmax, ry2, ry3, vm1 float32, k int) int {
	return 0
}
