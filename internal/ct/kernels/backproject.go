package kernels

import (
	"fmt"
	"math"

	"ifdk/internal/ct/interp"
)

// Back-projection kernels for the proposed algorithm (Alg. 4) on transposed
// projections. The surrounding loop structure lives in internal/ct/backproject;
// what lives here is the work for one projection and one tile row of voxel
// columns (i, j0), (i, j0+1), …, at most Lanes of them:
//
//   - ColumnGeom: the two inner products per column that are independent of
//     k (Theorems 2+3 — u, 1/z and the distance weight),
//   - AccumColumns: those, then the per-voxel inner product and bilinear
//     fetch down the whole slab depth of every column and its Theorem-1
//     mirror.
//
// AccumColumns is laid out like the paper's kernel (Listing 1), where a
// warp's lanes are neighbouring columns and each lane computes its column's
// registers once and keeps them while it walks k: lane c is column j0+c.
// For a fixed projection the detector row floor(u) is constant down a column
// — that is what the transpose pays for — so a lane's two detector rows are
// one offset, and a depth step of all lanes is one vector of v, one of its
// mirror, and four gathers each. In AVX2 assembly (accum_amd64.s) the eight
// lanes fill one register whatever the slab depth; portable Go runs the same
// lanes one at a time, and takes the tile rows and depths the assembly
// declines. Samples whose v lands on the detector border (or is NaN/Inf) are
// delegated to interp.Bilinear, the reference sampler, so edge and
// non-finite semantics are exactly those of the reference kernel.

// Lanes is the widest tile row AccumColumns takes, and the number of lanes
// per depth in its accumulator.
const Lanes = 8

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

// AccumColumns accumulates projection r's contribution to the tile row of
// voxel columns (i, j0), …, (i, j0+n-1), n ≤ Lanes, over the slab depths
// k0 … k0+h-1 and their Theorem-1 mirrors. proj is a transposed projection
// laid out rw×rh (rw = original detector height Nv as the fast axis, rh = Nu
// rows); vm1 = float32(Nv-1) is the mirror pivot. Column c's registers are
// ColumnGeom's u, f and w; for each kk < h, with fi = float32(i),
// fj = float32(j0+c), fk = float32(k0+kk):
//
//	v := (r[1][0]·fi + r[1][1]·fj + r[1][2]·fk + r[1][3])·f
//	acc[kk·Lanes+c]     += w·proj(v, u)      // bilinear, V fast axis
//	acc[(h+kk)·Lanes+c] += w·proj(vm1-v, u)
//
// acc holds 2h·Lanes floats, depth-major; lanes n … Lanes-1 of it are
// scratch, left with unspecified contents. proj must hold rw·rh floats.
//
//ifdk:hotpath
func AccumColumns(acc, proj []float32, rw, rh int, r *[3][4]float32, i, j0, n, k0, h int, vm1 float32) {
	if useFast {
		accumColumnsFast(acc, proj, rw, rh, r, i, j0, n, k0, h, vm1)
		return
	}
	AccumColumnsRef(acc, proj, rw, rh, r, i, j0, n, k0, h, vm1)
}

// AccumColumnsRef is the scalar reference for AccumColumns: ColumnGeomRef,
// then exactly the pre-kernel per-voxel code, one interp.Bilinear call per
// sample.
//
//ifdk:hotpath
func AccumColumnsRef(acc, proj []float32, rw, rh int, r *[3][4]float32, i, j0, n, k0, h int, vm1 float32) {
	var us, fs, ws [Lanes]float32
	ColumnGeomRef(us[:n], fs[:n], ws[:n], r, i, j0)
	fi := float32(i)
	for c, u := range us[:n] {
		fj := float32(j0 + c)
		yb := r[1][0]*fi + r[1][1]*fj
		f, wdis := fs[c], ws[c]
		for kk := 0; kk < h; kk++ {
			fk := float32(k0 + kk)
			y := yb + r[1][2]*fk + r[1][3]
			v := y * f
			vSym := vm1 - v
			acc[kk*Lanes+c] += wdis * interp.Bilinear(proj, rw, rh, v, u)
			acc[(h+kk)*Lanes+c] += wdis * interp.Bilinear(proj, rw, rh, vSym, u)
		}
	}
}

// lanes is a tile row's column registers, one column per lane (Listing 1's
// per-thread U, Z and W_dis registers, eight threads wide): u, f = 1/z and
// the distance weight w from ColumnGeom's formula, and yb, the
// k-independent part r[1][0]·fi + r[1][1]·fj of the y inner product. For an
// interior u, off = floor(u)·rw is the element offset of the lane's first
// detector row and du the fraction of u. columnLanesAVX2 fills every lane,
// lanes n … Lanes-1 repeating column n-1 so that they never stop the
// assembly early; fill fills the lanes c < n, and neither off nor du.
type lanes struct {
	off             [Lanes]int32
	u, du, f, w, yb [Lanes]float32
}

// fill is the portable form of columnLanesAVX2 for the lanes c < n.
//
//ifdk:hotpath
func (g *lanes) fill(r *[3][4]float32, i, j0, n int) {
	columnGeomFast(g.u[:n], g.f[:n], g.w[:n], r, i, j0)
	fi := float32(i)
	for c := range n {
		g.yb[c] = r[1][0]*fi + r[1][1]*float32(j0+c)
	}
}

//ifdk:hotpath
func accumColumnsFast(acc, proj []float32, rw, rh int, r *[3][4]float32, i, j0, n, k0, h int, vm1 float32) {
	// Both tiers share these checks, so a bad call fails the same way on
	// every host; past them, every index the tiers form is inside acc and
	// proj.
	if n < 0 || n > Lanes {
		panic(fmt.Sprintf("kernels: tile row of %d columns, want 0…%d", n, Lanes))
	}
	if rw < 0 || rh < 0 || rh > 0 && rw > len(proj)/rh {
		panic(fmt.Sprintf("kernels: %d×%d detector in a projection of %d floats", rw, rh, len(proj)))
	}
	acc = acc[:2*h*Lanes]
	if n == 0 {
		return
	}
	var g lanes
	ry2, ry3 := r[1][2], r[1][3]
	// The assembly needs column numbers and gather indices that fit an
	// int32, and every lane's two detector rows inside the projection.
	vector := useAVX2 && rw >= 2 && rw*rh <= math.MaxInt32 && j0 >= math.MinInt32 && j0 <= math.MaxInt32-Lanes
	if !vector || !columnLanesAVX2(&g, r, float32(i), float32(rh-1), j0, n, rw) {
		g.fill(r, i, j0, n)
		accumColumnsGo(acc, proj, rw, rh, n, &g, ry2, ry3, vm1, k0, h, 0, h)
		return
	}
	// The assembly consumes whole depths while every sample of the depth is
	// interior and stops in front of the first that is not. The portable
	// loop finishes that depth and the assembly is re-entered, so no
	// monotonicity of v in k is assumed.
	row0, row1, vMax := &proj[0], &proj[rw], float32(rw-1)
	for kk := 0; kk < h; kk++ {
		kk += accumColumnsAVX2(&acc[kk*Lanes], &acc[(h+kk)*Lanes], h-kk, row0, row1, &g, vMax, ry2, ry3, vm1, k0+kk)
		if kk < h {
			accumColumnsGo(acc, proj, rw, rh, n, &g, ry2, ry3, vm1, k0, h, kk, kk+1)
		}
	}
}

// accumColumnsGo is the portable fast loop over depths [kk0, kk1) of the
// lanes c < n. A lane with an interior u hoists its two detector rows and
// walks them stride-1 as v advances; a sample off those rows, and every
// sample of a lane whose u is not interior, goes through interp.Bilinear.
//
//ifdk:hotpath
func accumColumnsGo(acc, proj []float32, rw, rh, n int, g *lanes, ry2, ry3, vm1 float32, k0, h, kk0, kk1 int) {
	vMax, uMax := float32(rw-1), float32(rh-1)
	for c, u := range g.u[:n] {
		f, wdis, yb := g.f[c], g.w[c], g.yb[c]
		var row0, row1 []float32
		var du float32
		lim := float32(0) // no v passes the hoisted-row test unless u is interior
		if u >= 0 && u < uMax {
			nu := int(u) // u ≥ 0, so truncation is floor
			du = u - float32(nu)
			row0 = proj[nu*rw : (nu+1)*rw : (nu+1)*rw]
			row1 = proj[(nu+1)*rw : (nu+2)*rw : (nu+2)*rw]
			lim = vMax
		}
		for kk := kk0; kk < kk1; kk++ {
			fk := float32(k0 + kk)
			y := yb + ry2*fk + ry3
			v := y * f
			vSym := vm1 - v
			var a, b float32
			if v >= 0 && v < lim {
				nv := int(v)
				dv := v - float32(nv)
				t1 := row0[nv]*(1-dv) + row0[nv+1]*dv
				t2 := row1[nv]*(1-dv) + row1[nv+1]*dv
				a = t1*(1-du) + t2*du
			} else {
				a = interp.Bilinear(proj, rw, rh, v, u)
			}
			if vSym >= 0 && vSym < lim {
				nv := int(vSym)
				dv := vSym - float32(nv)
				t1 := row0[nv]*(1-dv) + row0[nv+1]*dv
				t2 := row1[nv]*(1-dv) + row1[nv+1]*dv
				b = t1*(1-du) + t2*du
			} else {
				b = interp.Bilinear(proj, rw, rh, vSym, u)
			}
			acc[kk*Lanes+c] += wdis * a
			acc[(h+kk)*Lanes+c] += wdis * b
		}
	}
}
