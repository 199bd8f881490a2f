// Package compress implements volume compression — the first of the
// paper's two stated future-work items ("we intend to investigate
// compression and visualization of the high-resolution volumes", Sec. 8).
//
// The codec quantizes the float32 voxels to 16-bit fixed point over the
// volume's dynamic range (CT consumers conventionally view 12-bit data, so
// 16 bits are transparent) and entropy-codes the result with DEFLATE. The
// maximum absolute quantization error is (max-min)/65535/2.
package compress

import (
	"bufio"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"ifdk/pkg/volume"
)

const magic = 0x69464456 // "iFDV"

// Encode writes the volume to w in the quantized-DEFLATE format.
func Encode(vol *volume.Volume, w io.Writer) error {
	s := vol.Summarize()
	lo, hi := float64(s.Min), float64(s.Max)
	if hi == lo {
		hi = lo + 1
	}
	var header [36]byte
	binary.LittleEndian.PutUint32(header[0:], magic)
	binary.LittleEndian.PutUint32(header[4:], uint32(vol.Nx))
	binary.LittleEndian.PutUint32(header[8:], uint32(vol.Ny))
	binary.LittleEndian.PutUint32(header[12:], uint32(vol.Nz))
	binary.LittleEndian.PutUint32(header[16:], uint32(vol.Layout))
	binary.LittleEndian.PutUint64(header[20:], math.Float64bits(lo))
	binary.LittleEndian.PutUint64(header[28:], math.Float64bits(hi))
	if _, err := w.Write(header[:]); err != nil {
		return err
	}
	fw, err := flate.NewWriter(w, flate.DefaultCompression)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(fw, 1<<16)
	scale := 65535 / (hi - lo)
	var qb [2]byte
	for _, v := range vol.Data {
		q := (float64(v) - lo) * scale
		if q < 0 {
			q = 0
		}
		if q > 65535 {
			q = 65535
		}
		binary.LittleEndian.PutUint16(qb[:], uint16(math.Round(q)))
		if _, err := bw.Write(qb[:]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return fw.Close()
}

// Decode reads a volume written by Encode.
func Decode(r io.Reader) (*volume.Volume, error) {
	var header [36]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, fmt.Errorf("compress: short header: %w", err)
	}
	if binary.LittleEndian.Uint32(header[0:]) != magic {
		return nil, fmt.Errorf("compress: bad magic")
	}
	nx := int(binary.LittleEndian.Uint32(header[4:]))
	ny := int(binary.LittleEndian.Uint32(header[8:]))
	nz := int(binary.LittleEndian.Uint32(header[12:]))
	layout := volume.Layout(binary.LittleEndian.Uint32(header[16:]))
	lo := math.Float64frombits(binary.LittleEndian.Uint64(header[20:]))
	hi := math.Float64frombits(binary.LittleEndian.Uint64(header[28:]))
	if nx <= 0 || ny <= 0 || nz <= 0 || nx*ny*nz > 1<<31 {
		return nil, fmt.Errorf("compress: implausible dimensions %dx%dx%d", nx, ny, nz)
	}
	if layout != volume.IMajor && layout != volume.KMajor {
		return nil, fmt.Errorf("compress: unknown layout %d", layout)
	}
	vol := volume.New(nx, ny, nz, layout)
	fr := flate.NewReader(r)
	defer fr.Close()
	br := bufio.NewReaderSize(fr, 1<<16)
	scale := (hi - lo) / 65535
	var qb [2]byte
	for n := range vol.Data {
		if _, err := io.ReadFull(br, qb[:]); err != nil {
			return nil, fmt.Errorf("compress: truncated payload at voxel %d: %w", n, err)
		}
		q := binary.LittleEndian.Uint16(qb[:])
		vol.Data[n] = float32(lo + float64(q)*scale)
	}
	return vol, nil
}

// MaxError returns the worst-case absolute quantization error for a volume
// with the given dynamic range.
func MaxError(min, max float32) float64 {
	span := float64(max) - float64(min)
	if span <= 0 {
		span = 1
	}
	return span / 65535 / 2
}
