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

// slabPair is the one Alg. 4 driver, behind both Proposed (a whole volume
// is the pair [0, Nz/2)) and ProposedSlabPair (one rank row's pair). It
// back-projects the voxels with z ∈ [z0, z1) and their Theorem-1 mirrors
// into vol, whose plane kk holds the lower slab's plane z0+kk and whose
// plane vol.Nz-1-kk holds its mirror.
//
// Instead of walking voxels k-innermost and projections t-innermost, each
// (i, j) column accumulates one projection at a time into a pooled pair of
// line buffers (the lower half-line and its mirror), then scatters the two
// lines into the volume. The per-voxel accumulation order over t is that of
// the voxel-at-a-time loop, so the result is bit-identical to it, but the
// inner walk is stride-1 along both the transposed detector rows and the
// line buffers, which is what kernels.AccumLinePair vectorizes.
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
	for s0 := 0; s0 < len(task.Proj); s0 += DefaultBatch {
		s1 := min(s0+DefaultBatch, len(task.Proj))
		// A Transposed task is read in place; otherwise each batch is
		// transposed into pooled images first (Alg. 4 line 3).
		bufs := acquireBatch(task.Mats[s0:s1], task.Proj[s0:s1], !task.Transposed)
		rows, data := bufs.rows.Data, bufs.data.Data
		nb := s1 - s0
		engine.ParallelRange(ny, opt.Workers, func(j0, j1 int) {
			regs, us, fs, ws := acquireRegs(nb)
			lines := colPool.Acquire(2 * h)
			sum, sym := lines.Data[:h], lines.Data[h:]
			for j := j0; j < j1; j++ {
				fj := float32(j)
				for i := 0; i < nx; i++ {
					fi := float32(i)
					kernels.ColumnGeom(us, fs, ws, rows, fi, fj)
					clear(sum)
					clear(sym)
					for t := range rows {
						r := &rows[t]
						yb := r[1][0]*fi + r[1][1]*fj
						kernels.AccumLinePair(sum, sym, data[t], ht, w,
							us[t], fs[t], ws[t], yb, r[1][2], r[1][3], vm1, z0)
					}
					base := (i*ny + j) * nz
					for kk := 0; kk < h; kk++ {
						vol.Data[base+kk] += sum[kk]
						vol.Data[base+nz-1-kk] += sym[kk]
					}
					if nz%2 == 1 {
						// Odd Nz: the centre plane has no mirror partner.
						// Only a whole volume can be odd, so z0 = 0 and
						// local plane h is global plane Nz/2.
						fk := float32(h)
						var csum float32
						for t := range rows {
							r := &rows[t]
							u, f, wdis := us[t], fs[t], ws[t]
							y := r[1][0]*fi + r[1][1]*fj + r[1][2]*fk + r[1][3]
							csum += wdis * sampleProj(data[t], ht, w, u, y*f, true)
						}
						vol.Data[base+h] += csum
					}
				}
			}
			lines.Release()
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
