//go:build !amd64

package kernels

func hasAVX2() bool { return false }

// accumBlocksAVX2 is never reached off amd64 (useAVX2 stays false); it
// exists so accumLinePairFast compiles on every GOARCH.
func accumBlocksAVX2(sum, sym *float32, n int, row0, row1 *float32, vmax, du, f, wdis, yb, ry2, ry3, vm1 float32, k0 int) int {
	return 0
}
