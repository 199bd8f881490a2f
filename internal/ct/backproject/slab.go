package backproject

import (
	"fmt"
	"math"
	"sync"

	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/kernels"
	"ifdk/internal/engine"
	"ifdk/pkg/volume"
)

// ProposedSlabPair runs the proposed algorithm (Alg. 4) restricted to one
// mirrored pair of Z slabs — the unit of the iFDK row decomposition. In the
// distributed framework each row of the 2-D rank grid owns the voxels with
// z ∈ [z0, z1) ∪ [Nz-z1, Nz-z0); because the proposed kernel touches a
// voxel and its Theorem-1 mirror together, this pair is exactly what one
// rank computes (the "2·R sub-volumes" of Fig. 3a).
//
// The destination volume is the compact local buffer of size
// Nx×Ny×2·(z1-z0) in k-major layout: local plane p < h holds global plane
// z0+p (the lower slab); local plane h+p holds global plane Nz-z1+p (the
// upper slab, ascending).
func ProposedSlabPair(task Task, vol *volume.Volume, opt Options, nzFull, z0, z1 int) error {
	if err := task.Validate(); err != nil {
		return err
	}
	if vol.Layout != volume.KMajor {
		return fmt.Errorf("backproject: slab pair requires a k-major volume, got %v", vol.Layout)
	}
	if nzFull%2 != 0 {
		return fmt.Errorf("backproject: slab decomposition requires an even Nz, got %d", nzFull)
	}
	h := z1 - z0
	if z0 < 0 || z1 > nzFull/2 || h <= 0 {
		return fmt.Errorf("backproject: slab [%d,%d) outside half-range [0,%d)", z0, z1, nzFull/2)
	}
	if vol.Nz != 2*h {
		return fmt.Errorf("backproject: local volume depth %d, want %d", vol.Nz, 2*h)
	}
	slabPair(task, vol, opt, z0, z1)
	return nil
}

// colTile is the side of the square tiles of (i, j) voxel columns that
// slabPair back-projects together; a tile row is one kernels.AccumColumns
// call (a whole tile one AccumColumnsWindow call), so it is as wide as the
// kernel's lanes. A
// tile's accumulators must stay in L1 for a whole batch: 8×8 = 64 columns ×
// 2h floats is 16 KiB at h = 32 (an Nz = 128 volume split over R = 2 rank
// rows).
const colTile = kernels.Lanes

// slabPair is the one Alg. 4 driver, behind both Proposed (a whole volume
// is the pair [0, Nz/2)) and ProposedSlabPair (one rank row's pair). It
// back-projects the voxels with z ∈ [z0, z1) and their Theorem-1 mirrors
// into vol, whose plane kk holds the lower slab's plane z0+kk and whose
// plane vol.Nz-1-kk holds its mirror.
//
// Workers take colTile×colTile tiles of (i, j) columns, held in one pooled
// tile accumulator. Each tile row i has its own block of 2h·colTile floats,
// column c of the row being column j0+c. With kernels.AccumColumns it is
// depth-major, colTile lanes per depth: acc[kk·colTile+c] is the lower
// slab's depth kk, acc[(h+kk)·colTile+c] its mirror. With
// kernels.AccumColumnsWindow — taken when kernels.WindowFits says the
// window tier runs this slab faster — each column's 2h floats are in its
// volume line's order: acc[c·2h+kk], and the mirror at acc[c·2h+2h-1-kk].
// When Nz is odd the centre plane follows at acc[2h·colTile+c] in both.
// For each projection of the batch in ascending order, the kernel adds that
// projection down the whole depth of every tile row (the centre plane takes
// kernels.ColumnGeom and one sample per column).
// After the batch the tile is added into the volume; in the window layout a
// tile row of an even-depth volume is one contiguous kernels.AddTo, because
// its columns are neighbouring k-major volume lines. Neighbouring columns
// project onto neighbouring detector rows, so the rows one projection's
// visit reads are fetched once per tile, not once per column. Every voxel
// still starts from 0, adds the projections in ascending order and is added
// to the volume once per batch, so the volume is bit-identical to the
// voxel-at-a-time loop at any tile shape and worker count.
func slabPair(task Task, vol *volume.Volume, opt Options, z0, z1 int) {
	p := slabPasses.Get().(*slabPass)
	p.vol, p.z0, p.h = vol, z0, z1-z0
	p.w, p.ht = task.Proj[0].W, task.Proj[0].H // detector Nu, Nv
	if task.Transposed {
		p.w, p.ht = p.ht, p.w
	}
	p.window = kernels.WindowFits(p.h, p.ht, maxVStep(task.Mats, vol.Nx, vol.Ny))
	tiles := (vol.Nx + colTile - 1) / colTile * ((vol.Ny + colTile - 1) / colTile)
	for s0 := 0; s0 < len(task.Proj); s0 += DefaultBatch {
		s1 := min(s0+DefaultBatch, len(task.Proj))
		// A Transposed task is read in place; otherwise each batch is
		// transposed into pooled images first (Alg. 4 line 3).
		bufs := acquireBatch(task.Mats[s0:s1], task.Proj[s0:s1], !task.Transposed)
		p.rows, p.data = bufs.rows.Data, bufs.data.Data
		engine.ParallelRange(tiles, opt.Workers, p.tiles)
		bufs.release()
	}
	*p = slabPass{tiles: p.tiles}
	slabPasses.Put(p)
}

// slabPass is one slabPair call's state, read by its batches' tile workers:
// the volume, the batch's narrowed matrices and transposed projections, the
// detector's Nu and Nv, the lower slab [z0, z0+h), and whether the window
// kernel runs. It is pooled with its tiles method value bound once, so a
// call allocates nothing; a closure over the state would, once per batch.
type slabPass struct {
	vol          *volume.Volume
	rows         [][3][4]float32
	data         [][]float32
	w, ht, z0, h int
	window       bool
	tiles        func(n0, n1 int)
}

var slabPasses = sync.Pool{New: func() any {
	p := new(slabPass)
	p.tiles = p.run
	return p
}}

// run back-projects the batch into tiles [n0, n1).
func (p *slabPass) run(n0, n1 int) {
	vol, rows, data, w, ht, z0, h, window := p.vol, p.rows, p.data, p.w, p.ht, p.z0, p.h, p.window
	nx, ny, nz := vol.Nx, vol.Ny, vol.Nz
	vm1 := float32(ht - 1)
	// Odd Nz: the centre plane has no mirror partner. Only a whole volume
	// can be odd, so z0 = 0 and local plane h is global plane Nz/2.
	odd := nz%2 == 1
	rowLen := (2*h + nz%2) * colTile
	tilesJ := (ny + colTile - 1) / colTile
	regs, us, fs, ws := acquireRegs(colTile)
	acc := colPool.Acquire(colTile * rowLen)
	for n := n0; n < n1; n++ {
		i0, j0 := n/tilesJ*colTile, n%tilesJ*colTile
		i1, j1 := min(i0+colTile, nx), min(j0+colTile, ny)
		tj := j1 - j0
		tile := acc.Data[:(i1-i0)*rowLen]
		clear(tile)
		for t := range rows {
			r := &rows[t]
			// The window kernel takes the whole tile and keeps each tile
			// row's accumulator in volume-line order, the gather kernel one
			// tile row depth-major; the centre plane follows either.
			if window {
				kernels.AccumColumnsWindow(tile, rowLen, data[t], ht, w, r, i0, i1-i0, j0, tj, z0, h, vm1)
			}
			for i := i0; i < i1; i++ {
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
						centre[c] += float32(ws[c] * sampleProj(data[t], ht, w, us[c], y*fs[c], true))
					}
				}
			}
		}
		for i := i0; i < i1; i++ {
			row := tile[(i-i0)*rowLen : (i-i0+1)*rowLen]
			base := (i*ny + j0) * nz
			if window && !odd {
				// The tile row's columns are neighbouring volume
				// lines, each already in line order.
				kernels.AddTo(vol.Data[base:base+tj*nz], row[:tj*nz])
				continue
			}
			for c := range tj {
				line := vol.Data[base+c*nz : base+(c+1)*nz : base+(c+1)*nz]
				if window {
					col := row[c*2*h : (c+1)*2*h]
					kernels.AddTo(line[:h], col[:h])
					kernels.AddTo(line[nz-h:], col[h:])
				} else {
					for kk := 0; kk < h; kk++ {
						line[kk] += row[kk*colTile+c]
						line[nz-1-kk] += row[(h+kk)*colTile+c]
					}
				}
				if odd {
					line[h] += row[2*h*colTile+c]
				}
			}
		}
	}
	acc.Release()
	regs.Release()
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
