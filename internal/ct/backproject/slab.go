package backproject

import (
	"fmt"
	"math"
	"sync"

	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/interp"
	"ifdk/internal/ct/kernels"
	"ifdk/internal/engine"
	"ifdk/pkg/volume"
)

// ProposedSlabPair runs the proposed algorithm (Alg. 4) restricted to one
// mirrored pair of Z slabs — the unit of the iFDK row decomposition. In the
// distributed framework each row of the 2-D rank grid owns the voxels with
// z ∈ [z0, z1) ∪ [Nz-z1, Nz-z0); because the proposed kernel touches a
// voxel and its Theorem-1 mirror together, this pair is one rank's share
// of the volume (the "2·R sub-volumes" of Fig. 3a).
//
// The destination volume is the compact local buffer of size
// Nx×Ny×2·(z1-z0) in k-major layout: local plane p < h holds global plane
// z0+p (the lower slab); local plane h+p holds global plane Nz-z1+p (the
// upper slab, ascending). It is ProposedSlabs with one destination.
func ProposedSlabPair(task Task, vol *volume.Volume, opt Options, nzFull, z0, z1 int) error {
	return ProposedSlabs(task, []Slab{{Vol: vol, Z0: z0, Z1: z1}}, opt, nzFull)
}

// Slab is one destination of ProposedSlabs: the slab pair [Z0, Z1) and its
// mirror in a compact local volume laid out as ProposedSlabPair describes.
type Slab struct {
	Vol    *volume.Volume
	Z0, Z1 int
}

// ProposedSlabs back-projects the task once over the union of dsts' slab
// pairs, which must be adjacent and ascending (each Z0 the previous Z1), and
// adds each batch into every destination's own planes: a grid column's one
// sweep, at its full half-height, for the slab pairs of all its ranks. Every
// voxel still starts a batch from 0, adds its projections in ascending order
// and is added to its destination once per batch, and the kernels sample
// plane k from its global index whatever depth the sweep has, so each
// destination gets the bits ProposedSlabPair gives it alone.
func ProposedSlabs(task Task, dsts []Slab, opt Options, nzFull int) error {
	if err := task.Validate(); err != nil {
		return err
	}
	if nzFull%2 != 0 {
		return fmt.Errorf("backproject: slab decomposition requires an even Nz, got %d", nzFull)
	}
	if len(dsts) == 0 {
		return fmt.Errorf("backproject: no slab pair to back-project into")
	}
	for n, d := range dsts {
		if d.Vol.Layout != volume.KMajor {
			return fmt.Errorf("backproject: slab pair requires a k-major volume, got %v", d.Vol.Layout)
		}
		h := d.Z1 - d.Z0
		if d.Z0 < 0 || d.Z1 > nzFull/2 || h <= 0 {
			return fmt.Errorf("backproject: slab [%d,%d) outside half-range [0,%d)", d.Z0, d.Z1, nzFull/2)
		}
		if d.Vol.Nz != 2*h {
			return fmt.Errorf("backproject: local volume depth %d, want %d", d.Vol.Nz, 2*h)
		}
		if n > 0 && (d.Z0 != dsts[n-1].Z1 || d.Vol.Nx != dsts[0].Vol.Nx || d.Vol.Ny != dsts[0].Vol.Ny) {
			return fmt.Errorf("backproject: slab [%d,%d) of %d×%d columns does not follow slab [%d,%d) of %d×%d",
				d.Z0, d.Z1, d.Vol.Nx, d.Vol.Ny, dsts[n-1].Z0, dsts[n-1].Z1, dsts[0].Vol.Nx, dsts[0].Vol.Ny)
		}
	}
	slabPair(task, dsts, opt)
	return nil
}

// colTile is the side of the square tiles of (i, j) voxel columns that
// slabPair back-projects together; a tile row is one kernels.AccumColumns
// call (a whole tile one AccumColumnsWindow call), so it is as wide as the
// kernel's lanes. A tile's accumulators are what one projection's visit
// works in, so they must stay in L1 for that visit: 8×8 = 64 columns × 2h
// floats is 16 KiB at h = 32 (an Nz = 128 volume split over R = 2 rank
// rows).
const colTile = kernels.Lanes

// blockBytes is the cache budget for one worker's block of tile
// accumulators. slabPair sweeps each projection of a batch across every
// tile of a block before it takes the next projection, so the projection's
// transposed detector rows are fetched once per block, not once per tile;
// the block's accumulators then have to stay cached through a whole batch
// of such sweeps, each of which streams a projection's rows through the
// cache beside them. 256 KiB is half of a 512 KiB L2, the smallest per core
// on current x86 servers: a rank's whole slab of projection_heavy's 16
// tiles (nx 32, h = 8, 4 KiB a tile) is one block of 64 KiB, and
// volume_heavy's h = 32 tiles (16 KiB each) go 16 to a block, one row of
// tiles across its 128 j columns.
const blockBytes = 256 << 10

// blockTiles is the number of tiles in a block: as many depth-h tile
// accumulators (plus the centre plane when odd is 1) as blockBytes holds,
// and at least one.
func blockTiles(h, odd int) int {
	return max(1, blockBytes/(4*colTile*colTile*(2*h+odd)))
}

// slabPair is the one Alg. 4 driver, behind Proposed (a whole volume is
// the pair [0, Nz/2)), ProposedSlabPair (one rank row's pair) and
// ProposedSlabs (a grid column's pairs). It back-projects the voxels with z
// in the sweep [z0, z1) — dsts[0].Z0 to the last Z1 — and their Theorem-1
// mirrors, and adds them into the destinations: destination d's plane kk
// holds the sweep's plane d.Z0+kk and its plane d.Vol.Nz-1-kk that plane's
// mirror.
//
// Workers take colTile×colTile tiles of (i, j) columns, blockTiles of them
// at a time held in one pooled block accumulator, one tile accumulator
// after the other. Each tile row i has its own block of 2h·colTile floats,
// h the sweep's depth, column c of the row being column j0+c. With
// kernels.AccumColumns it is depth-major, colTile lanes per depth:
// acc[kk·colTile+c] is the sweep's depth kk, acc[(h+kk)·colTile+c] its
// mirror. With kernels.AccumColumnsWindow — taken when kernels.WindowFits
// says the window tier runs this sweep faster — each column's 2h floats are
// in the order of a depth-2h volume line: acc[c·2h+kk], and the mirror at
// acc[c·2h+2h-1-kk]. When Nz is odd (a whole volume, the one destination)
// the centre plane follows at acc[2h·colTile+c] in both. For each
// projection of the batch in ascending order, the kernel adds that
// projection down the whole depth of every tile row of every tile of the
// block (the centre plane takes kernels.ColumnGeom and one sample per
// column). After the batch each tile is added into every destination's
// share of it; in the window layout each destination's share of a column is
// two runs, and a tile row of a one-destination even-depth sweep is one
// contiguous kernels.AddTo, because its columns are neighbouring k-major
// volume lines. Neighbouring columns project onto neighbouring detector
// rows, so the rows one projection's visit reads are fetched once per tile,
// not once per column, and the block order keeps them cached from one tile
// to the next (blockBytes). Every voxel still starts from 0, adds the
// projections in ascending order and is added to its destination once per
// batch, so each destination is bit-identical to the voxel-at-a-time loop
// at any tile shape, block size, worker count and sweep depth.
func slabPair(task Task, dsts []Slab, opt Options) {
	z0, z1 := dsts[0].Z0, dsts[len(dsts)-1].Z1
	slabPairBlocks(task, dsts, opt, blockTiles(z1-z0, dsts[0].Vol.Nz%2))
}

// slabPairBlocks is slabPair with block tiles to a block.
func slabPairBlocks(task Task, dsts []Slab, opt Options, block int) {
	p := slabPasses.Get().(*slabPass)
	// The destinations are copied, not kept, so a caller's slice literal
	// stays on its stack.
	p.dsts = append(p.dsts[:0], dsts...)
	p.z0, p.h, p.block = dsts[0].Z0, dsts[len(dsts)-1].Z1-dsts[0].Z0, block
	p.nx, p.ny, p.odd = dsts[0].Vol.Nx, dsts[0].Vol.Ny, dsts[0].Vol.Nz%2 == 1
	p.w, p.ht = task.Proj[0].W, task.Proj[0].H // detector Nu, Nv
	if task.Transposed {
		p.w, p.ht = p.ht, p.w
	}
	p.window = kernels.WindowFits(p.h, p.ht, maxVStep(task.Mats, p.nx, p.ny))
	tiles := (p.nx + colTile - 1) / colTile * ((p.ny + colTile - 1) / colTile)
	for s0 := 0; s0 < len(task.Proj); s0 += DefaultBatch {
		s1 := min(s0+DefaultBatch, len(task.Proj))
		// A Transposed task is read in place; otherwise each batch is
		// transposed into pooled images first (Alg. 4 line 3).
		bufs := acquireBatch(task.Mats[s0:s1], task.Proj[s0:s1], !task.Transposed)
		p.rows, p.data = bufs.rows.Data, bufs.data.Data
		engine.ParallelRange(tiles, opt.Workers, p.tiles)
		bufs.release()
	}
	clear(p.dsts)
	*p = slabPass{tiles: p.tiles, dsts: p.dsts[:0]}
	slabPasses.Put(p)
}

// slabPass is one slabPair call's state, read by its batches' tile workers:
// the destinations, the batch's narrowed matrices and transposed
// projections, the columns, the detector's Nu and Nv, the sweep [z0, z0+h),
// the tiles to a block, whether the volume has an unpaired centre plane and
// whether the window kernel runs. It is pooled with its tiles method value
// bound once, so a call allocates nothing; a closure over the state would,
// once per batch.
type slabPass struct {
	dsts                        []Slab
	rows                        [][3][4]float32
	data                        [][]float32
	nx, ny, w, ht, z0, h, block int
	odd, window                 bool
	tiles                       func(n0, n1 int)
}

var slabPasses = sync.Pool{New: func() any {
	p := new(slabPass)
	p.tiles = p.run
	return p
}}

// run back-projects the batch into tiles [n0, n1), one block of tiles at a
// time: it clears the block's accumulators, sweeps each projection across
// every tile of the block, and adds the block into the destinations.
func (p *slabPass) run(n0, n1 int) {
	rows, data, w, ht, z0, h, window, odd := p.rows, p.data, p.w, p.ht, p.z0, p.h, p.window, p.odd
	nx, ny := p.nx, p.ny
	vm1 := float32(ht - 1)
	// Odd Nz: the centre plane has no mirror partner. Only a whole volume
	// can be odd, so z0 = 0 and local plane h is global plane Nz/2.
	rowLen := 2 * h * colTile
	if odd {
		rowLen += colTile
	}
	tileLen := colTile * rowLen
	tilesJ := (ny + colTile - 1) / colTile
	block := min(p.block, n1-n0)
	regs, us, fs, ws := acquireRegs(colTile)
	acc := colPool.Acquire(block * tileLen)
	// tileAt returns tile n's accumulator, its first column (i0, j0) and its
	// rows and columns.
	tileAt := func(b0, n int) (tile []float32, i0, j0, ti, tj int) {
		i0, j0 = n/tilesJ*colTile, n%tilesJ*colTile
		ti, tj = min(colTile, nx-i0), min(colTile, ny-j0)
		return acc.Data[(n-b0)*tileLen : (n-b0)*tileLen+ti*rowLen], i0, j0, ti, tj
	}
	for b0 := n0; b0 < n1; b0 += block {
		b1 := min(b0+block, n1)
		clear(acc.Data[:(b1-b0)*tileLen])
		for t := range rows {
			r := &rows[t]
			for n := b0; n < b1; n++ {
				tile, i0, j0, ti, tj := tileAt(b0, n)
				// The window kernel takes the whole tile and keeps each
				// tile row's accumulator in volume-line order, the gather
				// kernel one tile row depth-major; the centre plane
				// follows either.
				if window {
					kernels.AccumColumnsWindow(tile, rowLen, data[t], ht, w, r, i0, ti, j0, tj, z0, h, vm1)
				}
				for i := i0; i < i0+ti; i++ {
					row := tile[(i-i0)*rowLen : (i-i0+1)*rowLen]
					if !window {
						kernels.AccumColumns(row, data[t], ht, w, r, i, j0, tj, z0, h, vm1)
					}
					if odd {
						kernels.ColumnGeom(us[:tj], fs, ws, r, i, j0)
						fi, fk := float32(i), float32(h)
						centre := row[2*h*colTile:]
						for c := range tj {
							fj := float32(j0 + c)
							y := float32(r[1][0]*fi) + float32(r[1][1]*fj) + float32(r[1][2]*fk) + r[1][3]
							centre[c] += float32(ws[c] * interp.Bilinear(data[t], ht, w, y*fs[c], us[c]))
						}
					}
				}
			}
		}
		for n := b0; n < b1; n++ {
			tile, i0, j0, ti, tj := tileAt(b0, n)
			for i := i0; i < i0+ti; i++ {
				row := tile[(i-i0)*rowLen : (i-i0+1)*rowLen]
				for _, d := range p.dsts {
					p.add(d, row, i, j0, tj)
				}
			}
		}
	}
	acc.Release()
	regs.Release()
}

// add adds tile row i's accumulator, columns j0 … j0+tj-1, into destination
// d's volume lines: the sweep's depths d.Z0-z0 … d.Z1-z0-1 and their
// mirrors, and the centre plane when there is one.
func (p *slabPass) add(d Slab, row []float32, i, j0, tj int) {
	h, nz := p.h, d.Vol.Nz
	a, hd := d.Z0-p.z0, d.Z1-d.Z0 // the destination's first depth in the sweep, and its depth
	base := (i*p.ny + j0) * nz
	if p.window && nz == 2*h {
		// One even-depth destination: the tile row's columns are
		// neighbouring volume lines, each already in line order.
		kernels.AddTo(d.Vol.Data[base:base+tj*nz], row[:tj*nz])
		return
	}
	for c := range tj {
		line := d.Vol.Data[base+c*nz : base+(c+1)*nz : base+(c+1)*nz]
		if p.window {
			col := row[c*2*h : (c+1)*2*h]
			kernels.AddTo(line[:hd], col[a:a+hd])
			kernels.AddTo(line[nz-hd:], col[2*h-a-hd:2*h-a])
		} else {
			for kk := 0; kk < hd; kk++ {
				line[kk] += row[(a+kk)*colTile+c]
				line[nz-1-kk] += row[(h+a+kk)*colTile+c]
			}
		}
		if p.odd {
			line[hd] += row[2*h*colTile+c]
		}
	}
}

// maxVStep bounds |∂v/∂k| = |P[1][2]|/z, the detector rows one slice step
// moves a voxel column's sample, over the task's projections and the
// volume's nx×ny columns. z = P[2][0]·i + P[2][1]·j + P[2][3] is linear in
// (i, j), so its least value is at a corner of the grid; the bound is +Inf
// when z reaches 0 there. On the ideal orbit this is Dz·SDD / (Dv·(SAD−ρ)),
// ρ the distance from the axis of the corner column nearest the source.
func maxVStep(mats []geometry.ProjMat, nx, ny int) float64 {
	worst := 0.0
	for _, m := range mats {
		y, z := m.Row(1), m.Row(2)
		for _, ij := range [4][2]float64{{0, 0}, {float64(nx - 1), 0}, {0, float64(ny - 1)}, {float64(nx - 1), float64(ny - 1)}} {
			depth := float64(z[0]*ij[0]) + float64(z[1]*ij[1]) + z[3]
			if !(depth > 0) {
				return math.Inf(1)
			}
			worst = max(worst, math.Abs(y[2])/depth)
		}
	}
	return worst
}

// PlaceSlabPair copies a slab pair in plane order — the i-major planes of
// the local volume, volume.KMajorToIMajor of the k-major one, nx·ny floats
// each, local plane p < h holding global plane z0+p and plane h+p global
// plane nzFull-z1+p — into a full i-major volume. Each slab is one run of
// whole planes in both, so this is two copies.
func PlaceSlabPair(global *volume.Volume, planes []float32, z0, z1 int) error {
	h, nxy := z1-z0, global.Nx*global.Ny
	if global.Layout != volume.IMajor {
		return fmt.Errorf("backproject: slab assembly into a %v volume", global.Layout)
	}
	if z0 < 0 || h <= 0 || z1 > global.Nz/2 || len(planes) != 2*h*nxy {
		return fmt.Errorf("backproject: slab [%d,%d) of %d floats does not fit a %d×%d×%d volume", z0, z1, len(planes), global.Nx, global.Ny, global.Nz)
	}
	up := global.Nz - z1
	copy(global.Data[z0*nxy:z1*nxy], planes[:h*nxy])
	copy(global.Data[up*nxy:(up+h)*nxy], planes[h*nxy:])
	return nil
}

// SlabPlanes returns the global Z planes covered by the slab pair, in local
// plane order (useful for writing output slices).
func SlabPlanes(nzFull, z0, z1 int) []int {
	h := z1 - z0
	out := make([]int, 0, 2*h)
	for p := 0; p < h; p++ {
		out = append(out, z0+p)
	}
	for p := 0; p < h; p++ {
		out = append(out, nzFull-z1+p)
	}
	return out
}
