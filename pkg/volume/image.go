package volume

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"sync"
)

// Image is a dense 2-D float32 matrix of W×H pixels stored row-major:
// Data[v*W+u]. For a CBCT projection W = Nu (detector width) and H = Nv
// (detector height), matching the (Nv, Nu)-shaped projections of Table 1.
type Image struct {
	W, H int
	Data []float32
}

// NewImage allocates a zeroed W×H image.
func NewImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("volume: invalid image size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Data: make([]float32, w*h)}
}

// At returns pixel (u, v) where u indexes columns and v rows.
func (m *Image) At(u, v int) float32 { return m.Data[v*m.W+u] }

// Set stores x at pixel (u, v).
func (m *Image) Set(u, v int, x float32) { m.Data[v*m.W+u] = x }

// Row returns the v-th row as a subslice (no copy).
func (m *Image) Row(v int) []float32 { return m.Data[v*m.W : (v+1)*m.W] }

// Clone returns a deep copy.
func (m *Image) Clone() *Image {
	out := &Image{W: m.W, H: m.H, Data: make([]float32, len(m.Data))}
	copy(out.Data, m.Data)
	return out
}

// Transpose returns a new H×W image with axes swapped. The proposed
// back-projection algorithm transposes each filtered projection
// (Alg. 4 line 3) so that accesses along the detector V axis — the axis
// walked by the Z-symmetric inner loop — become contiguous.
func (m *Image) Transpose() *Image {
	out := NewImage(m.H, m.W)
	m.TransposeInto(out)
	return out
}

// TransposeInto writes the transpose into dst, which must be H×W. Every
// destination pixel is overwritten, so dst may come from a buffer pool with
// undefined contents.
func (m *Image) TransposeInto(dst *Image) {
	if dst.W != m.H || dst.H != m.W {
		panic(fmt.Sprintf("volume: transpose destination %dx%d for source %dx%d",
			dst.W, dst.H, m.W, m.H))
	}
	// Tiles of 8 source columns × 16 source rows, the contiguous destination
	// run innermost: a tile writes 8 whole cache lines and reads 16 half
	// lines. At power-of-two widths the lines of one column sit 4·W bytes
	// apart and share an L1 set, so a tile may only touch a few at a time
	// (32×32 thrashes at W = 512). Tiles are walked down the columns, so the
	// 8 destination rows fill as 8 sequential streams — 1.5× faster than
	// row-major tile order on images that are not cache-resident, which in
	// the pipeline they are not.
	const tu, tv = 8, 16
	for u0 := 0; u0 < m.W; u0 += tu {
		u1 := min(u0+tu, m.W)
		for v0 := 0; v0 < m.H; v0 += tv {
			v1 := min(v0+tv, m.H)
			for u := u0; u < u1; u++ {
				out := dst.Data[u*m.H+v0 : u*m.H+v1]
				col := m.Data[v0*m.W+u:]
				for i := range out {
					out[i] = col[i*m.W]
				}
			}
		}
	}
}

// Summarize computes min/max/mean/std of the pixel payload.
func (m *Image) Summarize() Stats { return summarize(m.Data) }

// ImageRMSE returns the root-mean-square error between two equally sized
// images.
func ImageRMSE(a, b *Image) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("volume: image RMSE size mismatch %dx%d vs %dx%d",
			a.W, a.H, b.W, b.H)
	}
	return rmseFlat(a.Data, b.Data), nil
}

// WritePNG renders the image to an 8-bit grayscale PNG, linearly mapping
// [lo, hi] to [0, 255]. If lo == hi the image min/max is used. This mirrors
// the paper's use of ImageJ to render volumes for manual inspection
// (Sec. 5.1).
func (m *Image) WritePNG(w io.Writer, lo, hi float32) error {
	if lo == hi {
		s := m.Summarize()
		lo, hi = s.Min, s.Max
		if lo == hi {
			hi = lo + 1
		}
	}
	scale := 255.0 / float64(hi-lo)
	gray := image.NewGray(image.Rect(0, 0, m.W, m.H))
	for v := 0; v < m.H; v++ {
		for u := 0; u < m.W; u++ {
			x := (float64(m.At(u, v)) - float64(lo)) * scale
			x = math.Round(x)
			if x < 0 {
				x = 0
			}
			if x > 255 {
				x = 255
			}
			gray.SetGray(u, v, color.Gray{Y: uint8(x)})
		}
	}
	return pngEncoder.Encode(w, gray)
}

// pngEncoder is png.Encode's encoder (default compression) with its
// zlib writer and scanline buffers pooled: every GET /slice/{z} encodes a
// slice, and a fresh compress/flate writer per slice is most of the cost
// of a small one. The bytes are png.Encode's.
var pngEncoder = png.Encoder{BufferPool: &pngBuffers{}}

// pngBuffers implements png.EncoderBufferPool over a sync.Pool.
type pngBuffers struct{ pool sync.Pool }

func (p *pngBuffers) Get() *png.EncoderBuffer {
	b, _ := p.pool.Get().(*png.EncoderBuffer)
	return b // nil makes the encoder allocate one
}

func (p *pngBuffers) Put(b *png.EncoderBuffer) { p.pool.Put(b) }
