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
func ColumnGeom(us, fs, ws []float32, r *[3][4]float32, i, j0 int) {
	if useFast {
		columnGeomFast(us, fs, ws, r, i, j0)
		return
	}
	ColumnGeomRef(us, fs, ws, r, i, j0)
}

// ColumnGeomRef is the scalar reference for ColumnGeom.
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
func AccumColumnsRef(acc, proj []float32, rw, rh int, r *[3][4]float32, i, j0, n, k0, h int, vm1 float32) {
	accumColumnsRef(acc, proj, rw, rh, r, i, j0, n, k0, h, vm1, depthMajor)
}

// accumColumnsRef is AccumColumnsRef into either accumulator layout.
func accumColumnsRef(acc, proj []float32, rw, rh int, r *[3][4]float32, i, j0, n, k0, h int, vm1 float32, at layout) {
	var us, fs, ws [Lanes]float32
	ColumnGeomRef(us[:n], fs[:n], ws[:n], r, i, j0)
	ks, cs := at.strides(h)
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
			acc[kk*ks+c*cs] += wdis * interp.Bilinear(proj, rw, rh, v, u)
			acc[(h+kk)*ks+c*cs] += wdis * interp.Bilinear(proj, rw, rh, vSym, u)
		}
	}
}

// layout is a tile row accumulator's order: depthMajor (AccumColumns) holds
// depth kk of column c at kk·Lanes+c, columnMajor (AccumColumnsWindow) at
// c·2h+kk. Either way the mirror of depth kk is depth h+kk.
type layout bool

const (
	depthMajor  layout = false
	columnMajor layout = true
)

// strides returns the distance between neighbouring depths and between
// neighbouring columns.
func (at layout) strides(h int) (ks, cs int) {
	if at == columnMajor {
		return 1, 2 * h
	}
	return Lanes, 1
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
func (g *lanes) fill(r *[3][4]float32, i, j0, n int) {
	columnGeomFast(g.u[:n], g.f[:n], g.w[:n], r, i, j0)
	fi := float32(i)
	for c := range n {
		g.yb[c] = r[1][0]*fi + r[1][1]*float32(j0+c)
	}
}

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
		accumColumnsGo(acc, proj, rw, rh, &g, 0, n, ry2, ry3, vm1, k0, h, 0, h, depthMajor)
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
			accumColumnsGo(acc, proj, rw, rh, &g, 0, n, ry2, ry3, vm1, k0, h, kk, kk+1, depthMajor)
		}
	}
}

// accumColumnsGo is the portable fast loop over depths [kk0, kk1) of the
// lanes c0 ≤ c < c1, into an accumulator laid out as at says. A lane with an
// interior u hoists its two detector rows and walks them stride-1 as v
// advances; a sample off those rows, and every sample of a lane whose u is
// not interior, goes through interp.Bilinear.
func accumColumnsGo(acc, proj []float32, rw, rh int, g *lanes, c0, c1 int, ry2, ry3, vm1 float32, k0, h, kk0, kk1 int, at layout) {
	vMax, uMax := float32(rw-1), float32(rh-1)
	ks, cs := at.strides(h)
	for c := c0; c < c1; c++ {
		u, f, wdis, yb := g.u[c], g.f[c], g.w[c], g.yb[c]
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
			acc[kk*ks+c*cs] += wdis * a
			acc[(h+kk)*ks+c*cs] += wdis * b
		}
	}
}

// windowDepth is the number of consecutive depths of one column that
// AccumColumnsWindow's AVX-512 tier samples per block, one per lane; a
// block's taps come from one window of 2·windowDepth detector samples per
// row.
const windowDepth = 16

// WindowFits reports whether a slab pair of depth h on detector rows of rw
// samples (the transposed layout's row, Nv) should take AccumColumnsWindow
// rather than AccumColumns on this host, maxStep being the largest |∂v/∂k|
// any column of the slab sees. It needs the window tier, a slab at least one
// block deep, rows that hold a window, and a step small enough for an
// 8-depth block's taps, floor(v) … floor(v)+1 over 7 steps, to span at most
// the 2·windowDepth samples of a window. Both paths give the same bits; this
// only picks the faster.
func WindowFits(h, rw int, maxStep float64) bool {
	return onAVX512() && h >= windowDepth && rw >= 2*windowDepth && 7*maxStep <= 2*windowDepth-3
}

// AccumColumnsWindow is AccumColumns into a column-major accumulator: for
// column c and depth kk < h,
//
//	acc[c·2h+kk]   += w·proj(v, u)
//	acc[c·2h+h+kk] += w·proj(vm1-v, u)
//
// with v, u and w exactly as AccumColumns computes them. acc holds
// 2h·Lanes floats; columns n … Lanes-1 of it are scratch. Down a column v
// is linear in k, so on AVX-512 hosts the sixteen depths of a block read
// their taps from one 32-sample window of each detector row through
// two-source permutes instead of gathers (accum_amd64.s). A block that
// leaves the detector or spans more than the window is retried as two
// 8-depth windows, and an 8-depth block that still does not fit runs the
// portable loop, so the bits never depend on the tier.
func AccumColumnsWindow(acc, proj []float32, rw, rh int, r *[3][4]float32, i, j0, n, k0, h int, vm1 float32) {
	if useFast {
		accumColumnsWindowFast(acc, proj, rw, rh, r, i, j0, n, k0, h, vm1)
		return
	}
	accumColumnsRef(acc, proj, rw, rh, r, i, j0, n, k0, h, vm1, columnMajor)
}

// accumColumnsWindowFast is AccumColumnsWindow's fast form. It returns the
// number of (column, depth) pairs it ran on the portable loop, which only
// tests read.
func accumColumnsWindowFast(acc, proj []float32, rw, rh int, r *[3][4]float32, i, j0, n, k0, h int, vm1 float32) (portable int) {
	if n < 0 || n > Lanes {
		panic(fmt.Sprintf("kernels: tile row of %d columns, want 0…%d", n, Lanes))
	}
	if rw < 0 || rh < 0 || rh > 0 && rw > len(proj)/rh {
		panic(fmt.Sprintf("kernels: %d×%d detector in a projection of %d floats", rw, rh, len(proj)))
	}
	acc = acc[:2*h*Lanes]
	if n == 0 || h == 0 {
		return 0
	}
	var g lanes
	ry2, ry3 := r[1][2], r[1][3]
	// The assembly needs what accumColumnsFast's does, a window's worth of
	// samples per row, and depth numbers that fit an int32.
	vector := onAVX512() && rw >= 2*windowDepth && rw*rh <= math.MaxInt32 &&
		j0 >= math.MinInt32 && j0 <= math.MaxInt32-Lanes && k0 >= math.MinInt32 && k0 <= math.MaxInt32-h
	if !vector || !columnLanesAVX2(&g, r, float32(i), float32(rh-1), j0, n, rw) {
		g.fill(r, i, j0, n)
		accumColumnsGo(acc, proj, rw, rh, &g, 0, n, ry2, ry3, vm1, k0, h, 0, h, columnMajor)
		return n * h
	}
	// The assembly stops in front of an 8-depth block it cannot window; the
	// portable loop runs that block, and the assembly is re-entered behind it.
	vMax := float32(rw - 1)
	c, kk := 0, 0
	for {
		c, kk = accumWindowAVX512(&acc[0], h, &proj[0], rw, &g, n, k0, c, kk, vMax, ry2, ry3, vm1)
		if c >= n {
			return portable
		}
		kk1 := min(kk+8, h)
		accumColumnsGo(acc, proj, rw, rh, &g, c, c+1, ry2, ry3, vm1, k0, h, kk, kk1, columnMajor)
		portable += kk1 - kk
		if kk = kk1; kk == h {
			c, kk = c+1, 0
		}
	}
}
