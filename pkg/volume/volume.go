// Package volume provides the dense single-precision containers used
// throughout iFDK: 2-D projection images and 3-D reconstruction volumes.
//
// The paper stores all projections and volumes in float32 ("single precision
// for all projections, volumes, and runs", Sec. 5.1). Two volume memory
// layouts appear in the paper: the standard i-major layout used by the
// original FDK algorithm (Alg. 2) and the k-major layout introduced by the
// proposed algorithm (Alg. 4) to make voxel updates along the Z axis
// contiguous. Reshape converts between them (Alg. 4 line 22).
package volume

import (
	"fmt"
	"math"
)

// Layout selects the linear memory order of a Volume.
type Layout int

const (
	// IMajor is the conventional layout: the X (i) index varies fastest,
	// i.e. Data[(k*Ny+j)*Nx+i]. This is the layout of Alg. 2 and of the
	// slices written to storage.
	IMajor Layout = iota
	// KMajor is the proposed layout of Alg. 4: the Z (k) index varies
	// fastest, i.e. Data[(i*Ny+j)*Nz+k]. Along a vertical voxel line the
	// detector column u is constant (Theorem 2), so k-major updates are
	// contiguous.
	KMajor
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	switch l {
	case IMajor:
		return "i-major"
	case KMajor:
		return "k-major"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Volume is a dense 3-D float32 grid of Nx×Ny×Nz voxels in the given Layout.
type Volume struct {
	Nx, Ny, Nz int
	Layout     Layout
	Data       []float32
}

// New allocates a zeroed volume with the given dimensions and layout.
func New(nx, ny, nz int, layout Layout) *Volume {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("volume: invalid dimensions %dx%dx%d", nx, ny, nz))
	}
	return &Volume{
		Nx:     nx,
		Ny:     ny,
		Nz:     nz,
		Layout: layout,
		Data:   make([]float32, nx*ny*nz),
	}
}

// NumVoxels returns Nx*Ny*Nz.
func (v *Volume) NumVoxels() int { return v.Nx * v.Ny * v.Nz }

// Bytes returns the payload size in bytes (4 bytes per voxel).
func (v *Volume) Bytes() int64 { return int64(v.NumVoxels()) * 4 }

// Index returns the linear index of voxel (i, j, k) under the volume layout.
func (v *Volume) Index(i, j, k int) int {
	if v.Layout == IMajor {
		return (k*v.Ny+j)*v.Nx + i
	}
	return (i*v.Ny+j)*v.Nz + k
}

// At returns voxel (i, j, k).
func (v *Volume) At(i, j, k int) float32 { return v.Data[v.Index(i, j, k)] }

// Set stores x at voxel (i, j, k).
func (v *Volume) Set(i, j, k int, x float32) { v.Data[v.Index(i, j, k)] = x }

// Add accumulates x into voxel (i, j, k).
func (v *Volume) Add(i, j, k int, x float32) { v.Data[v.Index(i, j, k)] += x }

// Fill sets every voxel to x.
func (v *Volume) Fill(x float32) {
	for n := range v.Data {
		v.Data[n] = x
	}
}

// Clone returns a deep copy of the volume.
func (v *Volume) Clone() *Volume {
	out := &Volume{Nx: v.Nx, Ny: v.Ny, Nz: v.Nz, Layout: v.Layout,
		Data: make([]float32, len(v.Data))}
	copy(out.Data, v.Data)
	return out
}

// Reshape returns a copy of the volume in the requested layout ("reshape
// means changing data layout", Alg. 4 line 22). When the layout already
// matches, a deep copy is still returned so the caller may mutate it freely.
func (v *Volume) Reshape(layout Layout) *Volume {
	out := New(v.Nx, v.Ny, v.Nz, layout)
	if layout == v.Layout {
		copy(out.Data, v.Data)
		return out
	}
	if layout == IMajor {
		KMajorToIMajor(out.Data, v.Data, v.Nx, v.Ny, v.Nz)
		return out
	}
	// Walk the destination contiguously for better write locality.
	// dst is k-major, src is i-major: src[(k*Ny+j)*Nx+i]
	n := 0
	for i := 0; i < v.Nx; i++ {
		for j := 0; j < v.Ny; j++ {
			base := j * v.Nx
			for k := 0; k < v.Nz; k++ {
				out.Data[n] = v.Data[k*v.Ny*v.Nx+base+i]
				n++
			}
		}
	}
	return out
}

// planeBlock is the number of planes KMajorToIMajor fills per pass. Its
// destination rows lie a plane apart — 64 KiB at 128×128 — and so share one
// L1 set: 8 of them fit the set's ways, 16 thrash it.
const planeBlock = 8

// KMajorToIMajor stores the k-major nx×ny×nz payload src in dst in i-major
// (plane) order, dst[(k·ny+j)·nx+i] = src[(i·ny+j)·nz+k]: the transpose of
// Reshape to IMajor, blocked by planeBlock planes so that each voxel
// column's run of planeBlock values is read once and written to that many
// contiguous destination rows. Both slices must hold nx·ny·nz floats.
func KMajorToIMajor(dst, src []float32, nx, ny, nz int) {
	n, plane := nx*ny*nz, nx*ny
	if len(dst) < n || len(src) < n {
		panic(fmt.Sprintf("volume: %d×%d×%d transpose between %d and %d floats", nx, ny, nz, len(dst), len(src)))
	}
	k0 := 0
	for ; k0+planeBlock <= nz; k0 += planeBlock {
		for j := 0; j < ny; j++ {
			row := k0*plane + j*nx
			d0 := dst[row : row+nx : row+nx]
			d1 := dst[row+plane : row+plane+nx : row+plane+nx]
			d2 := dst[row+2*plane : row+2*plane+nx : row+2*plane+nx]
			d3 := dst[row+3*plane : row+3*plane+nx : row+3*plane+nx]
			d4 := dst[row+4*plane : row+4*plane+nx : row+4*plane+nx]
			d5 := dst[row+5*plane : row+5*plane+nx : row+5*plane+nx]
			d6 := dst[row+6*plane : row+6*plane+nx : row+6*plane+nx]
			d7 := dst[row+7*plane : row+7*plane+nx : row+7*plane+nx]
			for i := range d0 {
				at := (i*ny+j)*nz + k0
				s := src[at : at+planeBlock : at+planeBlock]
				d0[i], d1[i], d2[i], d3[i] = s[0], s[1], s[2], s[3]
				d4[i], d5[i], d6[i], d7[i] = s[4], s[5], s[6], s[7]
			}
		}
	}
	for ; k0 < nz; k0++ { // the last nz mod planeBlock planes, one at a time
		for j := 0; j < ny; j++ {
			d := dst[k0*plane+j*nx : k0*plane+(j+1)*nx]
			for i := range d {
				d[i] = src[(i*ny+j)*nz+k0]
			}
		}
	}
}

// SliceZ extracts the axial slice at height k as an Nx×Ny image
// (volumes are stored to the PFS as Nz slices of size Nx×Ny, Sec. 4.1.3).
func (v *Volume) SliceZ(k int) *Image {
	img := NewImage(v.Nx, v.Ny)
	for j := 0; j < v.Ny; j++ {
		for i := 0; i < v.Nx; i++ {
			img.Data[j*v.Nx+i] = v.At(i, j, k)
		}
	}
	return img
}

// SetSliceZ overwrites axial slice k from an Nx×Ny image.
func (v *Volume) SetSliceZ(k int, img *Image) error {
	if img.W != v.Nx || img.H != v.Ny {
		return fmt.Errorf("volume: slice size %dx%d does not match volume %dx%d",
			img.W, img.H, v.Nx, v.Ny)
	}
	for j := 0; j < v.Ny; j++ {
		for i := 0; i < v.Nx; i++ {
			v.Set(i, j, k, img.Data[j*v.Nx+i])
		}
	}
	return nil
}

// Stats summarizes a float32 payload.
type Stats struct {
	Min, Max   float32
	Mean, Std  float64
	NumSamples int
}

// Summarize computes min/max/mean/std of the volume payload.
func (v *Volume) Summarize() Stats { return summarize(v.Data) }

// summarize, RMSE and rmseFlat round every product that feeds a sum with
// an explicit conversion, so the fused multiply-adds Go emits on arm64,
// ppc64le and s390x cannot change their results (ci/run.sh fusion).
func summarize(data []float32) Stats {
	if len(data) == 0 {
		return Stats{}
	}
	s := Stats{Min: data[0], Max: data[0], NumSamples: len(data)}
	var sum, sumSq float64
	for _, x := range data {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
		f := float64(x)
		sum += f
		sumSq += float64(f * f)
	}
	n := float64(len(data))
	s.Mean = sum / n
	variance := sumSq/n - float64(s.Mean*s.Mean)
	if variance > 0 {
		s.Std = math.Sqrt(variance)
	}
	return s
}

// RMSE returns the root-mean-square error between two volumes. The volumes
// may use different layouts; they are compared voxel-by-voxel in (i, j, k)
// space. The paper verifies its output against the RTK CPU reference with
// RMSE < 1e-5 (Sec. 5.1).
func RMSE(a, b *Volume) (float64, error) {
	if a.Nx != b.Nx || a.Ny != b.Ny || a.Nz != b.Nz {
		return 0, fmt.Errorf("volume: RMSE dimension mismatch %dx%dx%d vs %dx%dx%d",
			a.Nx, a.Ny, a.Nz, b.Nx, b.Ny, b.Nz)
	}
	if a.Layout == b.Layout {
		return rmseFlat(a.Data, b.Data), nil
	}
	var sum float64
	for k := 0; k < a.Nz; k++ {
		for j := 0; j < a.Ny; j++ {
			for i := 0; i < a.Nx; i++ {
				d := float64(a.At(i, j, k)) - float64(b.At(i, j, k))
				sum += float64(d * d)
			}
		}
	}
	return math.Sqrt(sum / float64(a.NumVoxels())), nil
}

// RelRMSE is RMSE(ref, v) relative to ref's peak magnitude
// max(|min|, |max|), the error the paper bounds by 1e-5; a ref that is all
// zero leaves the RMSE unscaled.
func RelRMSE(ref, v *Volume) (float64, error) {
	rmse, err := RMSE(ref, v)
	if err != nil {
		return 0, err
	}
	s := ref.Summarize()
	if scale := math.Max(math.Abs(float64(s.Min)), math.Abs(float64(s.Max))); scale > 0 {
		rmse /= scale
	}
	return rmse, nil
}

func rmseFlat(a, b []float32) float64 {
	var sum float64
	for n := range a {
		d := float64(a[n]) - float64(b[n])
		sum += float64(d * d)
	}
	return math.Sqrt(sum / float64(len(a)))
}

// MaxAbsDiff returns the largest absolute voxel-wise difference between two
// equally sized volumes (layouts may differ).
func MaxAbsDiff(a, b *Volume) (float64, error) {
	if a.Nx != b.Nx || a.Ny != b.Ny || a.Nz != b.Nz {
		return 0, fmt.Errorf("volume: MaxAbsDiff dimension mismatch")
	}
	var worst float64
	for k := 0; k < a.Nz; k++ {
		for j := 0; j < a.Ny; j++ {
			for i := 0; i < a.Nx; i++ {
				d := math.Abs(float64(a.At(i, j, k)) - float64(b.At(i, j, k)))
				if d > worst {
					worst = d
				}
			}
		}
	}
	return worst, nil
}
