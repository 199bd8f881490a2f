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
		x := float32(r[0][0]*fi) + float32(r[0][1]*fj) + r[0][3]
		z := float32(r[2][0]*fi) + float32(r[2][1]*fj) + r[2][3]
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
		x := float32(x0*fi) + float32(x1*fj) + x3
		z := float32(z0*fi) + float32(z1*fj) + z3
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
	fi := float32(i)
	for c, u := range us[:n] {
		lo, ls, hi, hs := at.place(h, c)
		fj := float32(j0 + c)
		yb := float32(r[1][0]*fi) + float32(r[1][1]*fj)
		f, wdis := fs[c], ws[c]
		for kk := 0; kk < h; kk++ {
			fk := float32(k0 + kk)
			y := yb + float32(r[1][2]*fk) + r[1][3]
			v := float32(y * f)
			vSym := vm1 - v
			acc[lo+kk*ls] += float32(wdis * interp.Bilinear(proj, rw, rh, v, u))
			acc[hi+kk*hs] += float32(wdis * interp.Bilinear(proj, rw, rh, vSym, u))
		}
	}
}

// layout is a tile row accumulator's order. depthMajor (AccumColumns)
// holds depth kk of column c at kk·Lanes+c and its mirror at
// (h+kk)·Lanes+c. windowMajor (AccumColumnsWindow) holds column c's 2h
// floats together at c·2h, in the order of the column's volume line: depth
// kk at c·2h+kk, its mirror at c·2h+2h-1-kk.
type layout bool

const (
	depthMajor  layout = false
	windowMajor layout = true
)

// place returns where column c's depth 0 and its mirror sit and how far
// each moves per depth.
func (at layout) place(h, c int) (lo, loStep, hi, hiStep int) {
	if at == windowMajor {
		return c * 2 * h, 1, c*2*h + 2*h - 1, -1
	}
	return c, Lanes, h*Lanes + c, Lanes
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
		g.yb[c] = float32(r[1][0]*fi) + float32(r[1][1]*float32(j0+c))
	}
}

func accumColumnsFast(acc, proj []float32, rw, rh int, r *[3][4]float32, i, j0, n, k0, h int, vm1 float32) {
	checkTileRow(n, rw, rh, len(proj))
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

// checkTileRow panics unless a tile row of n columns on an rw×rh detector
// fits the kernels and a projection of np floats. Every tier runs it first,
// so a bad call fails the same way on every host; past it, every index the
// tiers form is inside acc and proj.
func checkTileRow(n, rw, rh, np int) {
	if n < 0 || n > Lanes {
		panic(fmt.Sprintf("kernels: tile row of %d columns, want 0…%d", n, Lanes))
	}
	if rw < 0 || rh < 0 || rh > 0 && rw > np/rh {
		panic(fmt.Sprintf("kernels: %d×%d detector in a projection of %d floats", rw, rh, np))
	}
}

// accumColumnsGo is the portable fast loop over depths [kk0, kk1) of the
// lanes c0 ≤ c < c1, into an accumulator laid out as at says. A lane with an
// interior u hoists its two detector rows and walks them stride-1 as v
// advances; a sample off those rows, and every sample of a lane whose u is
// not interior, goes through interp.Bilinear.
func accumColumnsGo(acc, proj []float32, rw, rh int, g *lanes, c0, c1 int, ry2, ry3, vm1 float32, k0, h, kk0, kk1 int, at layout) {
	vMax, uMax := float32(rw-1), float32(rh-1)
	for c := c0; c < c1; c++ {
		lo, ls, hi, hs := at.place(h, c)
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
			y := yb + float32(ry2*fk) + ry3
			v := float32(y * f)
			vSym := vm1 - v
			var a, b float32
			if v >= 0 && v < lim {
				nv := int(v)
				dv := v - float32(nv)
				t1 := float32(row0[nv]*(1-dv)) + float32(row0[nv+1]*dv)
				t2 := float32(row1[nv]*(1-dv)) + float32(row1[nv+1]*dv)
				a = float32(t1*(1-du)) + float32(t2*du)
			} else {
				a = interp.Bilinear(proj, rw, rh, v, u)
			}
			if vSym >= 0 && vSym < lim {
				nv := int(vSym)
				dv := vSym - float32(nv)
				t1 := float32(row0[nv]*(1-dv)) + float32(row0[nv+1]*dv)
				t2 := float32(row1[nv]*(1-dv)) + float32(row1[nv+1]*dv)
				b = float32(t1*(1-du)) + float32(t2*du)
			} else {
				b = interp.Bilinear(proj, rw, rh, vSym, u)
			}
			acc[lo+kk*ls] += float32(wdis * a)
			acc[hi+kk*hs] += float32(wdis * b)
		}
	}
}

// windowDepth is the number of lanes of AccumColumnsWindow's AVX-512
// vectors. In a slab at least that deep a block is windowDepth consecutive
// depths of one column, whose taps come from one window of 2·windowDepth
// detector samples per row.
const windowDepth = 16

// shallowWindow reports whether the window tier runs a slab of depth h in
// its shallow form, whole volume lines per vector: 16/(2h) columns, each
// column's h depths and then their mirrors, every half-column drawing its
// taps from a 2h-sample window. The assembly makes the same test.
func shallowWindow(h int) bool { return h == 8 || h == 4 }

// WindowFits reports whether a slab pair of depth h on detector rows of rw
// samples (the transposed layout's row, Nv) should take AccumColumnsWindow
// rather than AccumColumns on this host, maxStep being the largest |∂v/∂k|
// any column of the slab sees. It needs the window tier and rows that hold
// a window. A slab at least one block deep also needs a step small enough
// for an 8-depth block's taps, floor(v) … floor(v)+1 over 7 steps, to span
// at most the 2·windowDepth samples of a window. A shallow slab (h = 8 or
// 4) needs (h−1)·maxStep ≤ 2h−2, at most 2 rows per plane: the floors of
// a half-column then lie within 2h−2 of each other, so both taps of every
// depth fit its 2h-sample window. Other depths keep the gather. Both paths
// give the same bits; this only picks the faster.
func WindowFits(h, rw int, maxStep float64) bool {
	switch {
	case !onAVX512():
		return false
	case shallowWindow(h):
		return rw >= 2*h && float64(h-1)*maxStep <= float64(2*h-2)
	}
	return h >= windowDepth && rw >= 2*windowDepth && 7*maxStep <= 2*windowDepth-3
}

// AccumColumnsWindow is AccumColumns over a tile of rows tile rows,
// i … i+rows-1 (rows ≤ Lanes), of the columns j0 … j0+n-1, into
// accumulators in volume-line order: tile row q's starts at acc[q·stride],
// and for column c and depth kk < h
//
//	acc[q·stride+c·2h+kk]      += w·proj(v, u)
//	acc[q·stride+c·2h+2h-1-kk] += w·proj(vm1-v, u)
//
// with v, u and w exactly as AccumColumns computes them for tile row i+q,
// so column c's 2h floats are the slab pair's planes of its volume line in
// line order (the lower slab, then the mirror slab ascending) and a caller
// adds them into the line with one contiguous AddTo. Each tile row's
// accumulator holds 2h·Lanes floats (stride at least that when rows > 1);
// columns n … Lanes-1 of it are scratch.
//
// Down a column v is linear in k, so on AVX-512 hosts the taps come from
// windows of each detector row through two-source permutes instead of
// gathers (accum_amd64.s), with the next block's index math issued ahead of
// the current block's taps and the whole tile in one call. In a slab at
// least 16 deep a block is sixteen depths of one column, whose taps come
// from one 32-sample window; a block that spans more than that is retried
// as two 8-depth windows. In a shallow slab (h = 8 or 4) a block is one
// vector of whole volume lines — 16/(2h) columns, each column's h depths
// and then their mirrors reversed — and each half-column's taps come from a
// 2h-sample window. A block that reaches the detector's border is sampled
// in the kernel too: each sample with v in (−1, Nv) reads its taps outside
// the row as +0, and any other adds w·(+0), as interp.Bilinear's zero
// border does. A block that still does not fit or holds a NaN sample, and a
// tile row whose u is not interior, runs the portable loop, so the bits
// never depend on the tier.
func AccumColumnsWindow(acc []float32, stride int, proj []float32, rw, rh int, r *[3][4]float32, i, rows, j0, n, k0, h int, vm1 float32) {
	if useFast {
		accumColumnsWindowFast(acc, stride, proj, rw, rh, r, i, rows, j0, n, k0, h, vm1)
		return
	}
	checkTile(acc, stride, rows, h)
	for q := range rows {
		accumColumnsRef(acc[q*stride:], proj, rw, rh, r, i+q, j0, n, k0, h, vm1, windowMajor)
	}
}

// checkTile panics unless acc holds rows ≤ Lanes tile-row accumulators of
// 2h·Lanes floats, stride apart. A short accumulator fails as
// AccumColumns' does, on the slice expression.
func checkTile(acc []float32, stride, rows, h int) {
	if rows < 0 || rows > Lanes || rows > 1 && stride < 2*h*Lanes {
		panic(fmt.Sprintf("kernels: %d tile rows of %d floats, %d apart, want 0…%d rows at least a row apart", rows, 2*h*Lanes, stride, Lanes))
	}
	if rows > 0 {
		_ = acc[:(rows-1)*stride+2*h*Lanes]
	}
}

// accumColumnsWindowFast is AccumColumnsWindow's fast form. It returns the
// number of (column, depth) pairs it ran on the portable loop, which only
// tests read.
func accumColumnsWindowFast(acc []float32, stride int, proj []float32, rw, rh int, r *[3][4]float32, i, rows, j0, n, k0, h int, vm1 float32) (portable int) {
	checkTileRow(n, rw, rh, len(proj))
	checkTile(acc, stride, rows, h)
	if rows == 0 || n == 0 || h == 0 {
		return 0
	}
	// The assembly needs what accumColumnsFast's does, a window's worth of
	// samples per row, two rows (no u is interior on fewer), and row and
	// depth numbers below 2²⁴ in magnitude, where float32 holds them and
	// its running depth steps exactly.
	const exact = 1 << 24
	window := 2 * windowDepth
	if shallowWindow(h) {
		window = 2 * h
	}
	vector := onAVX512() && rw >= window && rh >= 2 && rw*rh <= math.MaxInt32 &&
		i > -exact && i < exact-Lanes && j0 >= math.MinInt32 && j0 <= math.MaxInt32-Lanes &&
		k0 > -exact && k0 < exact-h-windowDepth
	if vector {
		if p, ok := windowTile(acc, stride, proj, rw, rh, r, i, rows, j0, n, k0, h, vm1); ok {
			return p
		}
		// A tile row's u is not interior: row by row, that one portable.
		for q := range rows {
			p, ok := windowTile(acc[q*stride:], stride, proj, rw, rh, r, i+q, 1, j0, n, k0, h, vm1)
			if !ok {
				p = windowPortable(acc[q*stride:], proj, rw, rh, r, i+q, j0, n, k0, h, vm1, 0, n, 0, h)
			}
			portable += p
		}
		return portable
	}
	for q := range rows {
		portable += windowPortable(acc[q*stride:], proj, rw, rh, r, i+q, j0, n, k0, h, vm1, 0, n, 0, h)
	}
	return portable
}

// windowTile runs a tile on the window tier, and reports false, having
// touched nothing, when a tile row's u is not interior. The assembly stops
// in front of a block it cannot window — 8 depths of a column, or a shallow
// slab's group of columns; the portable loop runs that block, and the
// assembly is re-entered behind it.
func windowTile(acc []float32, stride int, proj []float32, rw, rh int, r *[3][4]float32, i, rows, j0, n, k0, h int, vm1 float32) (portable int, ok bool) {
	uMax := float32(rh - 1)
	q, c, kk, interior := accumWindowAVX512(&acc[0], stride, h, &proj[0], rw, r, uMax, i, rows, j0, n, k0, 0, 0, 0, vm1)
	if !interior {
		return 0, false
	}
	cols := 1
	if shallowWindow(h) {
		cols = windowDepth / (2 * h)
	}
	for q < rows {
		c1, kk1 := min(c+cols, n), min(kk+8, h)
		portable += windowPortable(acc[q*stride:], proj, rw, rh, r, i+q, j0, n, k0, h, vm1, c, c1, kk, kk1)
		if kk = kk1; kk == h {
			c, kk = c1, 0
		}
		if c == n {
			q, c = q+1, 0
		}
		if q < rows {
			q, c, kk, _ = accumWindowAVX512(&acc[0], stride, h, &proj[0], rw, r, uMax, i, rows, j0, n, k0, q, c, kk, vm1)
		}
	}
	return portable, true
}

// windowPortable runs columns c0 … c1-1, depths kk0 … kk1-1 of tile row i
// on the portable loop and returns how many (column, depth) pairs that is.
func windowPortable(acc, proj []float32, rw, rh int, r *[3][4]float32, i, j0, n, k0, h int, vm1 float32, c0, c1, kk0, kk1 int) int {
	var g lanes
	g.fill(r, i, j0, n)
	accumColumnsGo(acc, proj, rw, rh, &g, c0, c1, r[1][2], r[1][3], vm1, k0, h, kk0, kk1, windowMajor)
	return (c1 - c0) * (kk1 - kk0)
}

// AddTo adds src into dst element by element, dst[x] += src[x] for
// x < len(src); dst must be at least as long. It is the slab driver's
// tile → volume step, eight floats per instruction on AVX2 hosts.
func AddTo(dst, src []float32) {
	dst = dst[:len(src)]
	n := 0
	if useFast && useAVX2 {
		n = len(src) &^ 7
		if n > 0 {
			addAVX2(&dst[0], &src[0], n)
		}
	}
	for x := n; x < len(src); x++ {
		dst[x] += src[x]
	}
}
