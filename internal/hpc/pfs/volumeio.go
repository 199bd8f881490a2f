package pfs

import (
	"fmt"
	"time"

	"ifdk/pkg/volume"
)

// Projection and volume naming conventions shared by the writer (projection
// generator) and reader (iFDK ranks).

// ProjectionPath returns the object path of the s-th projection under a
// dataset prefix.
func ProjectionPath(prefix string, s int) string {
	return fmt.Sprintf("%s/proj_%06d.img", prefix, s)
}

// SlicePath returns the object path of the k-th volume slice under an
// output prefix. The volume of size Nx×Ny×Nz is stored as Nz slices of
// Nx×Ny (Sec. 4.1.3).
func SlicePath(prefix string, k int) string {
	return fmt.Sprintf("%s/slice_%06d.img", prefix, k)
}

// WriteProjection stores one projection image and returns its write
// duration. The image is encoded once, into the buffer the store keeps; img
// may be reused as soon as the call returns.
func (p *PFS) WriteProjection(prefix string, s int, img *volume.Image) (time.Duration, error) {
	return p.keep(ProjectionPath(prefix, s), volume.ImageToBytes(img))
}

// WriteSlice stores volume slice k under an output prefix, encoded once into
// the buffer the store keeps as WriteProjection does; img may be reused as
// soon as the call returns.
func (p *PFS) WriteSlice(prefix string, k int, img *volume.Image) (time.Duration, error) {
	return p.keep(SlicePath(prefix, k), volume.ImageToBytes(img))
}

// ReadProjection loads one projection image.
func (p *PFS) ReadProjection(prefix string, s int) (*volume.Image, time.Duration, error) {
	return p.ReadImage(ProjectionPath(prefix, s))
}

// ReadProjectionInto decodes one projection directly into dst, whose
// dimensions must match the stored image: a Peek with no allocation.
func (p *PFS) ReadProjectionInto(dst *volume.Image, prefix string, s int) (time.Duration, error) {
	blob, d, err := p.Peek(ProjectionPath(prefix, s))
	if err != nil {
		return 0, err
	}
	if err := volume.ImageFromBytesInto(dst, blob); err != nil {
		return 0, err
	}
	return d, nil
}

// ReadImage decodes the image object at a full path into a new image.
func (p *PFS) ReadImage(path string) (*volume.Image, time.Duration, error) {
	blob, d, err := p.Peek(path)
	if err != nil {
		return nil, 0, err
	}
	img, err := volume.ImageFromBytes(blob)
	if err != nil {
		return nil, 0, err
	}
	return img, d, nil
}

// WriteVolumeSlices stores a volume as Nz axial slices and returns the total
// write duration.
func (p *PFS) WriteVolumeSlices(prefix string, vol *volume.Volume) (time.Duration, error) {
	var total time.Duration
	for k := 0; k < vol.Nz; k++ {
		d, err := p.WriteSlice(prefix, k, vol.SliceZ(k))
		if err != nil {
			return total, err
		}
		total += d
	}
	return total, nil
}

// ReadVolumeSlices loads a volume stored by WriteVolumeSlices; nz slices of
// size nx×ny are expected. The result uses the i-major (storage) layout.
func (p *PFS) ReadVolumeSlices(prefix string, nx, ny, nz int) (*volume.Volume, time.Duration, error) {
	vol := volume.New(nx, ny, nz, volume.IMajor)
	var total time.Duration
	for k := 0; k < nz; k++ {
		img, d, err := p.ReadImage(SlicePath(prefix, k))
		if err != nil {
			return nil, total, err
		}
		if err := vol.SetSliceZ(k, img); err != nil {
			return nil, total, err
		}
		total += d
	}
	return vol, total, nil
}
