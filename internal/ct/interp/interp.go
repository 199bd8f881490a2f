// Package interp implements the sub-pixel bilinear interpolation of the
// paper's Algorithm 3, the primitive every back-projection kernel uses to
// fetch a filtered-projection value at a non-integer detector coordinate.
//
// Arithmetic is performed in float32 to match the GPU kernels, so the CPU
// reference algorithms and the simulated CUDA kernels produce bit-comparable
// results. Samples outside the detector contribute zero, the border
// behaviour of RTK's texture fetch with a zero border.
package interp

// Bilinear samples the w×h row-major image data at fractional coordinates
// (u, v), where u indexes columns (stride 1) and v rows (stride w).
// Out-of-range neighbours contribute zero.
func Bilinear(data []float32, w, h int, u, v float32) float32 {
	if u <= -1 || v <= -1 || u >= float32(w) || v >= float32(h) {
		return 0
	}
	nu := floorInt(u)
	nv := floorInt(v)
	du := u - float32(nu)
	dv := v - float32(nv)
	x00 := sample(data, w, h, nu, nv)
	x10 := sample(data, w, h, nu+1, nv)
	x01 := sample(data, w, h, nu, nv+1)
	x11 := sample(data, w, h, nu+1, nv+1)
	t1 := x00*(1-du) + x10*du // sub-pixel value on row nv   (Alg. 3 line 4)
	t2 := x01*(1-du) + x11*du // sub-pixel value on row nv+1 (Alg. 3 line 5)
	return t1*(1-dv) + t2*dv
}

func sample(data []float32, w, h, u, v int) float32 {
	if u < 0 || v < 0 || u >= w || v >= h {
		return 0
	}
	return data[v*w+u]
}

func floorInt(x float32) int {
	n := int(x)
	if float32(n) > x { // negative fractional values truncate toward zero
		n--
	}
	return n
}
