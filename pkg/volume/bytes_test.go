package volume

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func TestFloat32BytesRoundTrip(t *testing.T) {
	f := func(vals []float32) bool {
		out, err := BytesToFloat32s(Float32sToBytes(vals))
		if err != nil {
			return false
		}
		if len(out) != len(vals) {
			return false
		}
		for n := range vals {
			// NaNs compare unequal; compare the bit patterns via re-encode.
			if out[n] != vals[n] && !(vals[n] != vals[n] && out[n] != out[n]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBytesToFloat32sBadLength(t *testing.T) {
	if _, err := BytesToFloat32s(make([]byte, 5)); err == nil {
		t.Error("non-multiple-of-4 should error")
	}
}

func TestImageBytesRoundTrip(t *testing.T) {
	m := NewImage(5, 3)
	fillRandom(m.Data, 3)
	back, err := ImageFromBytes(ImageToBytes(m))
	if err != nil {
		t.Fatal(err)
	}
	if back.W != m.W || back.H != m.H {
		t.Fatalf("size mismatch %dx%d", back.W, back.H)
	}
	for n := range m.Data {
		if back.Data[n] != m.Data[n] {
			t.Fatal("payload mismatch")
		}
	}
}

// AppendImage reuses its buffer and appends exactly ImageToBytes' bytes.
func TestAppendImageMatchesImageToBytes(t *testing.T) {
	a, b := NewImage(5, 3), NewImage(2, 7)
	fillRandom(a.Data, 4)
	fillRandom(b.Data, 5)
	buf := AppendImage(nil, a)
	if !bytes.Equal(buf, ImageToBytes(a)) {
		t.Fatal("AppendImage(nil, a) differs from ImageToBytes(a)")
	}
	buf = AppendImage(buf, b)
	if want := append(ImageToBytes(a), ImageToBytes(b)...); !bytes.Equal(buf, want) {
		t.Fatal("appending a second image changed or misplaced bytes")
	}
	if again := AppendImage(buf[:0], a); &again[0] != &buf[0] || !bytes.Equal(again, ImageToBytes(a)) {
		t.Fatal("AppendImage into a large enough buffer reallocated or misencoded")
	}
}

// FuzzImageFromBytesInto drives the projection decoder — and the payload
// check the pipeline's filter reads the bytes through — with arbitrary
// blobs against destinations of 1…16 × 1…16, and restates its contract
// independently, in uint64:
//
//   - it succeeds exactly when the blob holds an 8-byte header W, H equal
//     to the destination's and 4·W·H payload bytes after it, and then every
//     value is the payload's little-endian bits, NaN payloads included;
//   - ImagePayload accepts exactly the same blobs and returns those bytes;
//   - ImageFromBytes accepts exactly the blobs whose header is consistent
//     with their length, and decodes the same values;
//   - a refused blob leaves the destination untouched.
//
// Seeds cover short blobs, inconsistent headers, W/H that differ from the
// destination, and a header whose 4·W·H wraps past 2⁶⁴ to match an empty
// payload.
func FuzzImageFromBytesInto(f *testing.F) {
	valid := func(w, h int, words ...uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(w))
		b = binary.LittleEndian.AppendUint32(b, uint32(h))
		for i := 0; i < w*h; i++ {
			b = binary.LittleEndian.AppendUint32(b, words[i%len(words)])
		}
		return b
	}
	specials := []uint32{0x3F800000, 0x7FC00000, 0x7F800001, 0xFF800000, 0x80000000, 1}
	f.Add(uint8(3), uint8(2), valid(3, 2, specials...))
	f.Add(uint8(2), uint8(3), valid(3, 2, specials...))
	f.Add(uint8(1), uint8(1), valid(1, 1, 0x7F800001))
	f.Add(uint8(4), uint8(4), valid(4, 4, specials...)[:70])
	f.Add(uint8(4), uint8(4), valid(4, 4, specials...)[:7])
	f.Add(uint8(4), uint8(4), []byte(nil))
	f.Add(uint8(4), uint8(4), append(valid(4, 4, specials...), 0))
	f.Add(uint8(4), uint8(4), valid(0, 4, specials...))
	f.Add(uint8(4), uint8(4), []byte{0, 0, 0, 0x80, 0, 0, 0, 0x80}) // 2³¹ × 2³¹: 4·W·H ≡ 0
	f.Add(uint8(4), uint8(4), []byte{0, 0, 0, 0x40, 4, 0, 0, 0})    // 2³⁰ × 4

	f.Fuzz(func(t *testing.T, dw, dh uint8, blob []byte) {
		w, h := 1+int(dw)%16, 1+int(dh)%16
		var hw, hh uint64
		consistent := false
		if len(blob) >= 8 {
			hw, hh = uint64(binary.LittleEndian.Uint32(blob)), uint64(binary.LittleEndian.Uint32(blob[4:]))
			n := uint64(len(blob) - 8)
			consistent = hw > 0 && hh > 0 && n%4 == 0 && hw*hh == n/4 // < 2⁶⁴: no wrap
		}
		fits := consistent && hw == uint64(w) && hh == uint64(h)

		dst := NewImage(w, h)
		const canary = 0xCAFEF00D
		for i := range dst.Data {
			dst.Data[i] = math.Float32frombits(canary)
		}
		err := ImageFromBytesInto(dst, blob)
		if (err == nil) != fits {
			t.Fatalf("%dx%d from %d bytes: error %v, want success %v", w, h, len(blob), err, fits)
		}
		payload, perr := ImagePayload(blob, w, h)
		if (perr == nil) != fits {
			t.Fatalf("%dx%d from %d bytes: ImagePayload error %v, want success %v", w, h, len(blob), perr, fits)
		}
		for i, x := range dst.Data {
			want := uint32(canary)
			if fits {
				want = binary.LittleEndian.Uint32(blob[8+4*i:])
			}
			if math.Float32bits(x) != want {
				t.Fatalf("%dx%d: value %d has bits %#x, want %#x", w, h, i, math.Float32bits(x), want)
			}
		}
		if fits && (len(payload) != 4*w*h || &payload[0] != &blob[8]) {
			t.Fatalf("%dx%d: payload is %d bytes, not the blob's %d after its header", w, h, len(payload), 4*w*h)
		}
		img, err := ImageFromBytes(blob)
		if (err == nil) != consistent {
			t.Fatalf("ImageFromBytes of %d bytes (header %dx%d): error %v, want success %v", len(blob), hw, hh, err, consistent)
		}
		if consistent {
			for i, x := range img.Data {
				if math.Float32bits(x) != binary.LittleEndian.Uint32(blob[8+4*i:]) {
					t.Fatalf("ImageFromBytes: value %d differs from the payload", i)
				}
			}
		}
	})
}

func TestImageFromBytesErrors(t *testing.T) {
	if _, err := ImageFromBytes(nil); err == nil {
		t.Error("empty blob should error")
	}
	m := NewImage(2, 2)
	blob := ImageToBytes(m)
	if _, err := ImageFromBytes(blob[:len(blob)-1]); err == nil {
		t.Error("truncated blob should error")
	}
}
