package backproject

import (
	"fmt"

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
// call, so it is as wide as the kernel's lanes. A tile's accumulators must
// stay in L1 for a whole batch: 8×8 = 64 columns × 2h floats is 16 KiB at
// h = 32 (an Nz = 128 volume split over R = 2 rank rows).
const colTile = kernels.Lanes

// slabPair is the one Alg. 4 driver, behind both Proposed (a whole volume
// is the pair [0, Nz/2)) and ProposedSlabPair (one rank row's pair). It
// back-projects the voxels with z ∈ [z0, z1) and their Theorem-1 mirrors
// into vol, whose plane kk holds the lower slab's plane z0+kk and whose
// plane vol.Nz-1-kk holds its mirror.
//
// Workers take colTile×colTile tiles of (i, j) columns, held in one pooled
// tile accumulator. Each tile row i has its own depth-major block with
// colTile lanes per depth, lane c for column j0+c: acc[kk·colTile+c] is the
// lower slab's depth kk, acc[(h+kk)·colTile+c] its mirror, and when Nz is
// odd the centre plane follows at acc[2h·colTile+c]. For each projection of
// the batch in ascending order, kernels.AccumColumns adds that projection
// down the whole depth of every tile row, the row's columns side by side
// (the centre plane takes kernels.ColumnGeom and one sample per column).
// After the batch the tile is added into the volume. Neighbouring columns
// project onto neighbouring detector rows, so the rows one projection's
// visit reads are fetched once per tile, not once per column. Every voxel
// still starts from 0, adds the projections in ascending order and is added
// to the volume once per batch, so the volume is bit-identical to the
// voxel-at-a-time loop at any tile shape and worker count.
//
//ifdk:hotpath
func slabPair(task Task, vol *volume.Volume, opt Options, z0, z1 int) {
	nx, ny, nz := vol.Nx, vol.Ny, vol.Nz
	w, ht := task.Proj[0].W, task.Proj[0].H // detector Nu, Nv
	if task.Transposed {
		w, ht = ht, w
	}
	vm1 := float32(ht - 1)
	h := z1 - z0
	// Odd Nz: the centre plane has no mirror partner. Only a whole volume
	// can be odd, so z0 = 0 and local plane h is global plane Nz/2.
	odd := nz%2 == 1
	rowLen := (2*h + nz%2) * colTile
	tilesJ := (ny + colTile - 1) / colTile
	tiles := (nx + colTile - 1) / colTile * tilesJ
	for s0 := 0; s0 < len(task.Proj); s0 += DefaultBatch {
		s1 := min(s0+DefaultBatch, len(task.Proj))
		// A Transposed task is read in place; otherwise each batch is
		// transposed into pooled images first (Alg. 4 line 3).
		bufs := acquireBatch(task.Mats[s0:s1], task.Proj[s0:s1], !task.Transposed)
		rows, data := bufs.rows.Data, bufs.data.Data
		engine.ParallelRange(tiles, opt.Workers, func(n0, n1 int) {
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
					for i := i0; i < i1; i++ {
						row := tile[(i-i0)*rowLen : (i-i0+1)*rowLen]
						kernels.AccumColumns(row, data[t], ht, w, r, i, j0, tj, z0, h, vm1)
						if odd {
							kernels.ColumnGeom(us[:tj], fs, ws, r, i, j0)
							fi, fk := float32(i), float32(h)
							centre := row[2*h*colTile:]
							for c := range tj {
								fj := float32(j0 + c)
								y := r[1][0]*fi + r[1][1]*fj + r[1][2]*fk + r[1][3]
								centre[c] += ws[c] * sampleProj(data[t], ht, w, us[c], y*fs[c], true)
							}
						}
					}
				}
				for i := i0; i < i1; i++ {
					row := tile[(i-i0)*rowLen : (i-i0+1)*rowLen]
					for c := range tj {
						base := (i*ny + j0 + c) * nz
						for kk := 0; kk < h; kk++ {
							vol.Data[base+kk] += row[kk*colTile+c]
							vol.Data[base+nz-1-kk] += row[(h+kk)*colTile+c]
						}
						if odd {
							vol.Data[base+h] += row[2*h*colTile+c]
						}
					}
				}
			}
			acc.Release()
			regs.Release()
		})
		bufs.release()
	}
}

// SlabPairToGlobal copies a slab-pair local volume into the right planes of
// a full i-major volume (used to assemble distributed results).
func SlabPairToGlobal(local *volume.Volume, global *volume.Volume, nzFull, z0, z1 int) error {
	h := z1 - z0
	if local.Nz != 2*h || global.Nz != nzFull {
		return fmt.Errorf("backproject: slab assembly size mismatch (local %d, global %d)", local.Nz, global.Nz)
	}
	if local.Nx != global.Nx || local.Ny != global.Ny {
		return fmt.Errorf("backproject: slab assembly XY mismatch")
	}
	for p := 0; p < h; p++ {
		lower := z0 + p
		upper := nzFull - z1 + p
		for j := 0; j < local.Ny; j++ {
			for i := 0; i < local.Nx; i++ {
				global.Set(i, j, lower, local.At(i, j, p))
				global.Set(i, j, upper, local.At(i, j, h+p))
			}
		}
	}
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
