package volume

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Float32sToBytes serializes a float32 slice to little-endian bytes. It is
// used when projections and volume slices cross the (simulated) parallel
// file system or the wire.
func Float32sToBytes(src []float32) []byte {
	out := make([]byte, 4*len(src))
	Float32sToBytesInto(out, src)
	return out
}

// Float32sToBytesInto is Float32sToBytes into dst, which must hold
// 4·len(src) bytes: the one encoder behind every little-endian payload.
func Float32sToBytesInto(dst []byte, src []float32) {
	dst = dst[:4*len(src)]
	for n, x := range src {
		binary.LittleEndian.PutUint32(dst[4*n:], math.Float32bits(x))
	}
}

// BytesToFloat32s deserializes little-endian bytes into float32 values.
func BytesToFloat32s(src []byte) ([]float32, error) {
	if len(src)%4 != 0 {
		return nil, fmt.Errorf("volume: byte length %d is not a multiple of 4", len(src))
	}
	out := make([]float32, len(src)/4)
	for n := range out {
		out[n] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*n:]))
	}
	return out, nil
}

// ImageToBytes serializes an image header (W, H as uint32) plus payload.
func ImageToBytes(m *Image) []byte { return AppendImage(nil, m) }

// AppendImage appends the ImageToBytes encoding of m to dst and returns the
// extended slice, so a caller encoding many images can reuse one buffer.
func AppendImage(dst []byte, m *Image) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 8+4*len(m.Data))[:n+8+4*len(m.Data)]
	binary.LittleEndian.PutUint32(dst[n:], uint32(m.W))
	binary.LittleEndian.PutUint32(dst[n+4:], uint32(m.H))
	Float32sToBytesInto(dst[n+8:], m.Data)
	return dst
}

// ImageFromBytes reverses ImageToBytes.
func ImageFromBytes(src []byte) (*Image, error) {
	w, h, err := imageHeader(src)
	if err != nil {
		return nil, err
	}
	img := NewImage(w, h)
	decodePayload(img.Data, src[8:])
	return img, nil
}

// ImageFromBytesInto decodes a blob into dst, whose dimensions must match
// the encoded header. It is the allocation-free sibling of ImageFromBytes:
// the preview tier decodes each staged projection it keeps into a pooled
// image.
func ImageFromBytesInto(dst *Image, src []byte) error {
	payload, err := ImagePayload(src, dst.W, dst.H)
	if err != nil {
		return err
	}
	decodePayload(dst.Data, payload)
	return nil
}

// ImagePayload returns the little-endian float32 payload of a blob whose
// header must read w×h — the checks ImageFromBytesInto makes, for callers
// that consume the bytes without decoding an image (the pipeline's filter
// reads each staged projection straight from them). The payload aliases
// src.
func ImagePayload(src []byte, w, h int) ([]byte, error) {
	bw, bh, err := imageHeader(src)
	if err != nil {
		return nil, err
	}
	if bw != w || bh != h {
		return nil, fmt.Errorf("volume: image blob is %dx%d, destination is %dx%d", bw, bh, w, h)
	}
	return src[8:], nil
}

func imageHeader(src []byte) (w, h int, err error) {
	if len(src) < 8 {
		return 0, 0, fmt.Errorf("volume: image blob too short (%d bytes)", len(src))
	}
	w = int(binary.LittleEndian.Uint32(src[0:]))
	h = int(binary.LittleEndian.Uint32(src[4:]))
	// W·H < 2⁶⁴ always, but 4·W·H can wrap: compare whole pixels, in uint64.
	if n := len(src) - 8; w <= 0 || h <= 0 || n%4 != 0 || uint64(w)*uint64(h) != uint64(n/4) {
		return 0, 0, fmt.Errorf("volume: image blob header %dx%d inconsistent with %d bytes", w, h, len(src))
	}
	return w, h, nil
}

func decodePayload(dst []float32, payload []byte) {
	for n := range dst {
		dst[n] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*n:]))
	}
}
