package compress

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ifdk/pkg/volume"
)

func smoothVolume(n int, seed int64) *volume.Volume {
	vol := volume.New(n, n, n, volume.IMajor)
	rng := rand.New(rand.NewSource(seed))
	base := rng.Float64()
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				v := base + math.Sin(float64(i)/5)*math.Cos(float64(j)/7) + float64(k)/float64(n)
				vol.Set(i, j, k, float32(v))
			}
		}
	}
	return vol
}

func TestRoundTripWithinErrorBound(t *testing.T) {
	vol := smoothVolume(16, 1)
	var buf bytes.Buffer
	if err := Encode(vol, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Nx != 16 || back.Layout != vol.Layout {
		t.Fatalf("metadata lost: %dx%dx%d %v", back.Nx, back.Ny, back.Nz, back.Layout)
	}
	s := vol.Summarize()
	bound := MaxError(s.Min, s.Max) * 1.01 // rounding slack
	worst, err := volume.MaxAbsDiff(vol, back)
	if err != nil {
		t.Fatal(err)
	}
	if worst > bound {
		t.Errorf("max error %g exceeds quantization bound %g", worst, bound)
	}
}

func TestCompressionRatio(t *testing.T) {
	vol := smoothVolume(24, 2)
	var buf bytes.Buffer
	if err := Encode(vol, &buf); err != nil {
		t.Fatal(err)
	}
	raw := 4 * vol.NumVoxels()
	if buf.Len() >= raw/2 {
		t.Errorf("compressed %d bytes of %d raw — expected > 2x on smooth data", buf.Len(), raw)
	}
}

func TestConstantVolume(t *testing.T) {
	vol := volume.New(4, 4, 4, volume.KMajor)
	vol.Fill(3.5)
	var buf bytes.Buffer
	if err := Encode(vol, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	worst, _ := volume.MaxAbsDiff(vol, back)
	if worst > 1e-4 {
		t.Errorf("constant volume error %g", worst)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	bad := make([]byte, 36)
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	vol := smoothVolume(8, 3)
	var buf bytes.Buffer
	if err := Encode(vol, &buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Decode(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream accepted")
	}
}

// Property: round trips never exceed the documented error bound for random
// small volumes.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vol := volume.New(5, 4, 3, volume.IMajor)
		for n := range vol.Data {
			vol.Data[n] = rng.Float32()*20 - 10
		}
		var buf bytes.Buffer
		if err := Encode(vol, &buf); err != nil {
			return false
		}
		back, err := Decode(&buf)
		if err != nil {
			return false
		}
		s := vol.Summarize()
		worst, err := volume.MaxAbsDiff(vol, back)
		return err == nil && worst <= MaxError(s.Min, s.Max)*1.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMaxErrorDegenerate(t *testing.T) {
	if MaxError(5, 5) <= 0 {
		t.Error("degenerate range should still give a positive bound")
	}
}
