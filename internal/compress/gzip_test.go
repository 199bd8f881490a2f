package compress

import (
	"bytes"
	"math"
	"testing"

	"ifdk/pkg/volume"
)

// A slice-like blob (smooth float32 raster) must round-trip bit-exactly and
// actually shrink — the whole point of per-part gzip on the slice stream.
func TestGzipRoundTripBitExact(t *testing.T) {
	img := volume.NewImage(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			img.Data[y*64+x] = float32(math.Sin(float64(x)/9) * math.Cos(float64(y)/7))
		}
	}
	blob := volume.ImageToBytes(img)
	gz, err := Gzip(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(gz) >= len(blob) {
		t.Errorf("smooth slice did not compress: %d -> %d bytes", len(blob), len(gz))
	}
	back, err := Gunzip(gz)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, blob) {
		t.Fatal("gzip round trip is not bit-exact")
	}
}

func TestGunzipRejectsGarbage(t *testing.T) {
	if _, err := Gunzip([]byte("not gzip at all")); err == nil {
		t.Fatal("Gunzip accepted garbage")
	}
	gz, err := Gzip([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Gunzip(gz[:len(gz)-3]); err == nil {
		t.Fatal("Gunzip accepted a truncated stream")
	}
}

func TestGzipEmpty(t *testing.T) {
	gz, err := Gzip(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Gunzip(gz)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Fatalf("empty round trip returned %d bytes", len(back))
	}
}
