package gpusim

import (
	"fmt"

	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/interp"
	"ifdk/pkg/volume"
)

// Run executes the kernel functionally on the simulated device, exactly
// following the lane/shuffle semantics of Listing 1, and accumulates into
// the volume. RTK-32 expects an i-major volume; the shflBP kernels expect
// k-major (their "Transpose Volume" characteristic).
//
// This is the correctness half of the GPU substitution: for small problems
// the output is compared against the CPU reference algorithms (RMSE < 1e-5,
// the paper's own verification bound).
func Run(dev Device, g geometry.Params, proj []*volume.Image, k Kernel, vol *volume.Volume) error {
	if len(proj) != g.Np {
		return fmt.Errorf("gpusim: %d projections for Np = %d", len(proj), g.Np)
	}
	if vol.Nx != g.Nx || vol.Ny != g.Ny || vol.Nz != g.Nz {
		return fmt.Errorf("gpusim: volume %dx%dx%d does not match geometry", vol.Nx, vol.Ny, vol.Nz)
	}
	need := int64(4) * (int64(vol.NumVoxels()) + int64(g.Nu)*int64(g.Nv)*NBatch)
	if k == RTK32 {
		need += 4 * int64(vol.NumVoxels()) // dual buffer
	}
	if need > dev.MemBytes {
		return fmt.Errorf("gpusim: problem needs %d bytes, device has %d", need, dev.MemBytes)
	}
	mats := geometry.ProjectionMatrices(g)
	if k == RTK32 {
		if vol.Layout != volume.IMajor {
			return fmt.Errorf("gpusim: RTK-32 requires an i-major volume")
		}
		return runRTK32(g, proj, mats, vol)
	}
	if vol.Layout != volume.KMajor {
		return fmt.Errorf("gpusim: %v requires a k-major volume", k)
	}
	return runShflBP(g, proj, mats, vol, k.Characteristics().TransposeProj)
}

// runRTK32 mirrors RTK's kernel_fdk_3Dgrid: one thread per voxel, a batch
// of 32 projection matrices in constant memory, three inner products and a
// texture fetch per projection (Alg. 2).
func runRTK32(g geometry.Params, proj []*volume.Image, mats []geometry.ProjMat, vol *volume.Volume) error {
	nx, ny, nz := g.Nx, g.Ny, g.Nz
	for s0 := 0; s0 < g.Np; s0 += NBatch {
		s1 := min(s0+NBatch, g.Np)
		rows := make([][3][4]float32, s1-s0)
		data := make([][]float32, s1-s0)
		for t := range rows {
			rows[t] = mats[s0+t].Rows32()
			data[t] = proj[s0+t].Data
		}
		for k := 0; k < nz; k++ {
			fk := float32(k)
			for j := 0; j < ny; j++ {
				fj := float32(j)
				base := (k*ny + j) * nx
				for i := 0; i < nx; i++ {
					fi := float32(i)
					var sum float32
					for t := range rows {
						r := &rows[t]
						x := r[0][0]*fi + r[0][1]*fj + r[0][2]*fk + r[0][3]
						y := r[1][0]*fi + r[1][1]*fj + r[1][2]*fk + r[1][3]
						z := r[2][0]*fi + r[2][1]*fj + r[2][2]*fk + r[2][3]
						f := 1 / z
						wdis := f * f
						sum += wdis * interp.Bilinear(data[t], g.Nu, g.Nv, x*f, y*f)
					}
					vol.Data[base+i] += sum
				}
			}
		}
	}
	return nil
}

// runShflBP mirrors Listing 1: a warp's 32 lanes walk consecutive voxels
// along Z in the lower half of the volume; lane l precomputes the registers
// U = u and Z = 1/z for projection l of the batch (legal because both are
// independent of the lane's Z index, Theorems 2+3); the batch loop shuffles
// U and Z from lane s and each lane updates its voxel and the Z-mirrored
// one (Theorem 1).
func runShflBP(g geometry.Params, proj []*volume.Image, mats []geometry.ProjMat, vol *volume.Volume, transposeProj bool) error {
	nx, ny, nz := g.Nx, g.Ny, g.Nz
	halfUp := (nz + 1) / 2 // lanes cover ceil(Nz/2); the middle plane of an odd Nz self-mirrors
	var qU, qV int
	for s0 := 0; s0 < g.Np; s0 += NBatch {
		s1 := min(s0+NBatch, g.Np)
		nb := s1 - s0
		rows := make([][3][4]float32, nb)
		data := make([][]float32, nb)
		for t := range rows {
			rows[t] = mats[s0+t].Rows32()
			if transposeProj {
				data[t] = proj[s0+t].Transpose().Data
				qU, qV = g.Nv, g.Nu // transposed: V is the fast axis
			} else {
				data[t] = proj[s0+t].Data
				qU, qV = g.Nu, g.Nv
			}
		}
		var regU, regZ [NBatch]float32
		var sum, sumSym [32]float32
		for j := 0; j < ny; j++ {
			fj := float32(j)
			for i := 0; i < nx; i++ {
				fi := float32(i)
				for zBase := 0; zBase < halfUp; zBase += 32 {
					lanes := min(32, halfUp-zBase)
					// `if (laneId < img_dim.z)`: lane l computes the
					// registers for projection l at its own voxel.
					// All 32 hardware lanes exist even when fewer voxels are
					// active; U and Z are Z-independent, so any lane's own
					// Z index is a valid evaluation point.
					for l := 0; l < nb; l++ {
						r := &rows[l]
						fz := float32(zBase + l)
						z := r[2][0]*fi + r[2][1]*fj + r[2][2]*fz + r[2][3]
						f := 1 / z
						x := r[0][0]*fi + r[0][1]*fj + r[0][2]*fz + r[0][3]
						regZ[l] = f
						regU[l] = x * f
					}
					for l := 0; l < lanes; l++ {
						sum[l], sumSym[l] = 0, 0
					}
					for s := 0; s < nb; s++ {
						u := regU[s] // __shfl_sync(0xffffffff, U, s)
						f := regZ[s] // __shfl_sync(0xffffffff, Z, s)
						wdis := f * f
						r := &rows[s]
						for l := 0; l < lanes; l++ {
							fz := float32(zBase + l)
							y := r[1][0]*fi + r[1][1]*fj + r[1][2]*fz + r[1][3]
							v := y * f
							vSym := float32(g.Nv-1) - v
							sum[l] += wdis * fetchProj(data[s], qU, qV, u, v, transposeProj)
							if int(fz) != nz-1-int(fz) {
								sumSym[l] += wdis * fetchProj(data[s], qU, qV, u, vSym, transposeProj)
							}
						}
					}
					base := (i*ny + j) * nz
					for l := 0; l < lanes; l++ {
						z := zBase + l
						vol.Data[base+z] += sum[l]
						if z != nz-1-z {
							vol.Data[base+nz-1-z] += sumSym[l]
						}
					}
				}
			}
		}
	}
	return nil
}

// fetchProj performs the texture/L1 fetch: bilinear interpolation on the
// (possibly transposed) projection.
func fetchProj(data []float32, w, h int, u, v float32, transposed bool) float32 {
	if transposed {
		return interp.Bilinear(data, w, h, v, u)
	}
	return interp.Bilinear(data, w, h, u, v)
}
