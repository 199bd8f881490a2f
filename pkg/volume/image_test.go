package volume

import (
	"bytes"
	"image/png"
	"math"
	"testing"
	"testing/quick"
)

func TestImageAtSet(t *testing.T) {
	m := NewImage(4, 3)
	m.Set(3, 2, 7)
	if m.At(3, 2) != 7 {
		t.Error("At after Set mismatch")
	}
	if m.Data[2*4+3] != 7 {
		t.Error("row-major layout violated")
	}
}

func TestImageRow(t *testing.T) {
	m := NewImage(3, 2)
	copy(m.Data, []float32{1, 2, 3, 4, 5, 6})
	r := m.Row(1)
	if len(r) != 3 || r[0] != 4 || r[2] != 6 {
		t.Errorf("Row(1) = %v", r)
	}
	r[0] = 9 // Row must alias, not copy.
	if m.At(0, 1) != 9 {
		t.Error("Row should alias image data")
	}
}

func TestTranspose(t *testing.T) {
	m := NewImage(3, 2)
	copy(m.Data, []float32{1, 2, 3, 4, 5, 6})
	tr := m.Transpose()
	if tr.W != 2 || tr.H != 3 {
		t.Fatalf("transpose size %dx%d", tr.W, tr.H)
	}
	for v := 0; v < m.H; v++ {
		for u := 0; u < m.W; u++ {
			if m.At(u, v) != tr.At(v, u) {
				t.Fatalf("transpose mismatch at (%d,%d)", u, v)
			}
		}
	}
}

// TransposeInto walks 8×16 tiles; it must equal the naive double loop
// bit for bit on sizes that are not tile multiples, overwrite every pixel of
// a dirty destination, and allocate nothing.
func TestTransposeIntoMatchesNaive(t *testing.T) {
	for _, sz := range [][2]int{{1, 1}, {3, 5}, {5, 3}, {17, 33}, {33, 17}, {512, 512}} {
		m := NewImage(sz[0], sz[1])
		fillRandom(m.Data, int64(sz[0]*1000+sz[1]))
		dst := NewImage(m.H, m.W)
		for n := range dst.Data {
			dst.Data[n] = float32(math.NaN())
		}
		m.TransposeInto(dst)
		for v := 0; v < m.H; v++ {
			for u := 0; u < m.W; u++ {
				if got, want := dst.Data[u*m.H+v], m.Data[v*m.W+u]; got != want {
					t.Fatalf("%dx%d: transposed (%d,%d) = %g, want %g", m.W, m.H, u, v, got, want)
				}
			}
		}
		if avg := testing.AllocsPerRun(10, func() { m.TransposeInto(dst) }); avg != 0 {
			t.Errorf("%dx%d: TransposeInto allocates %.1f objects/op", m.W, m.H, avg)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(w, h uint8, seed int64) bool {
		mw, mh := int(w%40)+1, int(h%40)+1
		m := NewImage(mw, mh)
		fillRandom(m.Data, seed)
		back := m.Transpose().Transpose()
		if back.W != m.W || back.H != m.H {
			return false
		}
		for n := range m.Data {
			if m.Data[n] != back.Data[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestImageRMSE(t *testing.T) {
	a := NewImage(2, 2)
	b := NewImage(2, 2)
	b.Fill3()
	r, err := ImageRMSE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r != 3 {
		t.Errorf("RMSE = %v", r)
	}
	if _, err := ImageRMSE(a, NewImage(3, 2)); err == nil {
		t.Error("size mismatch should error")
	}
}

// Fill3 is a helper used only by tests.
func (m *Image) Fill3() {
	for n := range m.Data {
		m.Data[n] = 3
	}
}

func TestWritePNG(t *testing.T) {
	m := NewImage(8, 4)
	for n := range m.Data {
		m.Data[n] = float32(n)
	}
	var buf bytes.Buffer
	if err := m.WritePNG(&buf, 0, 0); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 8 || img.Bounds().Dy() != 4 {
		t.Errorf("png size %v", img.Bounds())
	}
}

// WritePNG reuses pooled encoder buffers; its bytes must stay png.Encode's
// for the same pixels, on a cold pool and on one warmed by images of other
// sizes and contents.
func TestWritePNGBytesMatchEncode(t *testing.T) {
	for round := 0; round < 3; round++ {
		for _, size := range [][2]int{{8, 4}, {64, 64}, {3, 17}, {128, 96}} {
			m := NewImage(size[0], size[1])
			fillRandom(m.Data, int64(round*10+size[0]))
			var got bytes.Buffer
			if err := m.WritePNG(&got, 0, 0); err != nil {
				t.Fatal(err)
			}
			img, err := png.Decode(bytes.NewReader(got.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := png.Encode(&want, img); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("round %d %dx%d: WritePNG wrote %d bytes, png.Encode %d, not the same", round, size[0], size[1], got.Len(), want.Len())
			}
		}
	}
}

func TestWritePNGConstantImage(t *testing.T) {
	m := NewImage(2, 2)
	var buf bytes.Buffer
	if err := m.WritePNG(&buf, 0, 0); err != nil {
		t.Fatalf("constant image should not fail: %v", err)
	}
}
