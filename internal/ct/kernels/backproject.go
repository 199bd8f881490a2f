package kernels

import (
	"math"

	"ifdk/internal/ct/interp"
)

// Back-projection kernels for the proposed algorithm (Alg. 4) on transposed
// projections. The surrounding loop structure lives in internal/ct/backproject;
// what lives here is the per-(i,j)-column work:
//
//   - ColumnGeom: the two inner products per column that are independent of
//     k (Theorems 2+3 — u, 1/z and the distance weight), for one projection
//     over a run of columns,
//   - AccumLinePair: the per-voxel inner product and bilinear fetch for one
//     projection along a full vertical voxel line and its Theorem-1 mirror.
//
// AccumLinePair is where the transpose pays off: for a fixed projection t
// the detector row index is floor(u) — constant along the voxel line — so
// the fast path hoists the two detector rows once and walks them stride-1
// as v advances, with no per-sample bounds checks — eight voxels at a time
// in AVX2 assembly where the host has it (accum_amd64.s), one at a time in
// portable Go otherwise and for any 8-block the assembly declines. Samples
// whose v lands on the detector border (or is NaN/Inf) are delegated to
// interp.Bilinear, the reference sampler, so edge and non-finite semantics
// are exactly those of the reference kernel.

// ColumnGeom fills projection r's column registers (Listing 1's U, Z and
// W_dis registers) for the run of voxel columns (i, j0), (i, j0+1), …,
// (i, j0+len(us)-1): for each c, with fi = float32(i), fj = float32(j0+c),
//
//	x := r[0][0]·fi + r[0][1]·fj + r[0][3]
//	z := r[2][0]·fi + r[2][1]·fj + r[2][3]
//	us[c], fs[c], ws[c] = x/z, 1/z, 1/z²
//
// fs and ws must be at least len(us) long.
//
//ifdk:hotpath
func ColumnGeom(us, fs, ws []float32, r *[3][4]float32, i, j0 int) {
	if useFast {
		columnGeomFast(us, fs, ws, r, i, j0)
		return
	}
	ColumnGeomRef(us, fs, ws, r, i, j0)
}

// ColumnGeomRef is the scalar reference for ColumnGeom.
//
//ifdk:hotpath
func ColumnGeomRef(us, fs, ws []float32, r *[3][4]float32, i, j0 int) {
	fi := float32(i)
	for c := range us {
		fj := float32(j0 + c)
		x := r[0][0]*fi + r[0][1]*fj + r[0][3]
		z := r[2][0]*fi + r[2][1]*fj + r[2][3]
		f := 1 / z
		us[c] = x * f
		fs[c] = f
		ws[c] = f * f
	}
}

//ifdk:hotpath
func columnGeomFast(us, fs, ws []float32, r *[3][4]float32, i, j0 int) {
	n := len(us)
	fs = fs[:n]
	ws = ws[:n]
	fi := float32(i)
	x0, x1, x3 := r[0][0], r[0][1], r[0][3]
	z0, z1, z3 := r[2][0], r[2][1], r[2][3]
	for c := range us {
		fj := float32(j0 + c)
		x := x0*fi + x1*fj + x3
		z := z0*fi + z1*fj + z3
		f := 1 / z
		us[c] = x * f
		fs[c] = f
		ws[c] = f * f
	}
}

// AccumLinePair accumulates one projection's contribution to a vertical
// voxel line and its Theorem-1 mirror. proj is a transposed projection laid
// out rw×rh (rw = original detector height Nv as the fast axis, rh = Nu
// rows); u, f and wdis are the column-constant registers from ColumnGeom;
// yb carries the k-independent part r[1][0]·fi + r[1][1]·fj of the y inner
// product and ry2, ry3 its fk coefficient and constant; vm1 = float32(Nv-1)
// is the Theorem-1 mirror pivot. For each kk < len(sum), with
// fk = float32(k0+kk):
//
//	v    := (yb + ry2·fk + ry3)·f
//	sum[kk] += wdis·proj(v, u)     // bilinear, V fast axis
//	sym[kk] += wdis·proj(vm1-v, u)
//
// len(sym) must equal len(sum).
//
//ifdk:hotpath
func AccumLinePair(sum, sym, proj []float32, rw, rh int, u, f, wdis, yb, ry2, ry3, vm1 float32, k0 int) {
	if useFast {
		accumLinePairFast(sum, sym, proj, rw, rh, u, f, wdis, yb, ry2, ry3, vm1, k0)
		return
	}
	AccumLinePairRef(sum, sym, proj, rw, rh, u, f, wdis, yb, ry2, ry3, vm1, k0)
}

// AccumLinePairRef is the scalar reference for AccumLinePair: the loop body
// is exactly the pre-kernel per-voxel code, one interp.Bilinear call per
// sample.
//
//ifdk:hotpath
func AccumLinePairRef(sum, sym, proj []float32, rw, rh int, u, f, wdis, yb, ry2, ry3, vm1 float32, k0 int) {
	for kk := range sum {
		fk := float32(k0 + kk)
		y := yb + ry2*fk + ry3
		v := y * f
		vSym := vm1 - v
		sum[kk] += wdis * interp.Bilinear(proj, rw, rh, v, u)
		sym[kk] += wdis * interp.Bilinear(proj, rw, rh, vSym, u)
	}
}

//ifdk:hotpath
func accumLinePairFast(sum, sym, proj []float32, rw, rh int, u, f, wdis, yb, ry2, ry3, vm1 float32, k0 int) {
	// The fast path needs both detector rows floor(u) and floor(u)+1 fully
	// inside the projection; border columns (and NaN u, which fails the
	// positive comparison) keep the reference path.
	if !(u >= 0 && u < float32(rh-1)) {
		AccumLinePairRef(sum, sym, proj, rw, rh, u, f, wdis, yb, ry2, ry3, vm1, k0)
		return
	}
	nu := int(u) // u ≥ 0, so truncation is floor
	du := u - float32(nu)
	row0 := proj[nu*rw : (nu+1)*rw : (nu+1)*rw]
	row1 := proj[(nu+1)*rw : (nu+2)*rw : (nu+2)*rw]
	vMax := float32(rw - 1)
	n := len(sum)
	sym = sym[:n]
	// The vector tier needs a row it can address, a row length float32
	// holds exactly (its range test against vMax is its bounds check) and
	// lane numbers that fit int32; anything else is one pass of the portable
	// loop.
	if !useAVX2 || rw < 2 || rw > 1<<24 || k0 < 0 || k0+n > math.MaxInt32 {
		accumLinePairGo(sum, sym, proj, row0, row1, rw, rh, u, du, f, wdis, yb, ry2, ry3, vm1, vMax, k0)
		return
	}
	// The assembly consumes whole 8-k blocks while every lane is interior and
	// stops in front of the first block that is not (or the sub-8 tail). The
	// portable loop finishes that block and the assembly is re-entered, so no
	// monotonicity of v in k is assumed.
	for kk := 0; kk < n; {
		if n-kk >= 8 {
			kk += accumBlocksAVX2(&sum[kk], &sym[kk], n-kk, &row0[0], &row1[0],
				vMax, du, f, wdis, yb, ry2, ry3, vm1, k0+kk)
			if kk == n {
				break
			}
		}
		end := min(kk+8, n)
		accumLinePairGo(sum[kk:end], sym[kk:end], proj, row0, row1, rw, rh, u, du, f, wdis, yb, ry2, ry3, vm1, vMax, k0+kk)
		kk = end
	}
}

// accumLinePairGo is the portable fast loop over one line (or one block of
// it): row0 and row1 are the hoisted detector rows floor(u) and floor(u)+1,
// du the fraction of u, vMax = float32(rw-1).
//
//ifdk:hotpath
func accumLinePairGo(sum, sym, proj, row0, row1 []float32, rw, rh int, u, du, f, wdis, yb, ry2, ry3, vm1, vMax float32, k0 int) {
	sym = sym[:len(sum)]
	for kk := range sum {
		fk := float32(k0 + kk)
		y := yb + ry2*fk + ry3
		v := y * f
		vSym := vm1 - v
		var a, b float32
		if v >= 0 && v < vMax {
			nv := int(v)
			dv := v - float32(nv)
			t1 := row0[nv]*(1-dv) + row0[nv+1]*dv
			t2 := row1[nv]*(1-dv) + row1[nv+1]*dv
			a = t1*(1-du) + t2*du
		} else {
			a = interp.Bilinear(proj, rw, rh, v, u)
		}
		if vSym >= 0 && vSym < vMax {
			nv := int(vSym)
			dv := vSym - float32(nv)
			t1 := row0[nv]*(1-dv) + row0[nv+1]*dv
			t2 := row1[nv]*(1-dv) + row1[nv+1]*dv
			b = t1*(1-du) + t2*du
		} else {
			b = interp.Bilinear(proj, rw, rh, vSym, u)
		}
		sum[kk] += wdis * a
		sym[kk] += wdis * b
	}
}
