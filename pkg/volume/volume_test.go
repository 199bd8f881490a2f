package volume

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func fillRandom(data []float32, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for n := range data {
		data[n] = rng.Float32()*2 - 1
	}
}

func TestIndexLayouts(t *testing.T) {
	v := New(3, 4, 5, IMajor)
	if got := v.Index(1, 2, 3); got != (3*4+2)*3+1 {
		t.Errorf("IMajor Index(1,2,3) = %d", got)
	}
	v.Layout = KMajor
	if got := v.Index(1, 2, 3); got != (1*4+2)*5+3 {
		t.Errorf("KMajor Index(1,2,3) = %d", got)
	}
}

func TestIndexBijective(t *testing.T) {
	for _, layout := range []Layout{IMajor, KMajor} {
		v := New(4, 3, 5, layout)
		seen := make(map[int]bool)
		for k := 0; k < v.Nz; k++ {
			for j := 0; j < v.Ny; j++ {
				for i := 0; i < v.Nx; i++ {
					idx := v.Index(i, j, k)
					if idx < 0 || idx >= len(v.Data) {
						t.Fatalf("%v: index out of range: %d", layout, idx)
					}
					if seen[idx] {
						t.Fatalf("%v: duplicate index %d", layout, idx)
					}
					seen[idx] = true
				}
			}
		}
		if len(seen) != v.NumVoxels() {
			t.Errorf("%v: covered %d of %d cells", layout, len(seen), v.NumVoxels())
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	v := New(5, 6, 7, KMajor)
	v.Set(4, 5, 6, 2.5)
	if got := v.At(4, 5, 6); got != 2.5 {
		t.Errorf("At after Set = %v", got)
	}
	v.Add(4, 5, 6, 0.5)
	if got := v.At(4, 5, 6); got != 3.0 {
		t.Errorf("At after Add = %v", got)
	}
}

func TestReshapeRoundTrip(t *testing.T) {
	v := New(6, 5, 4, IMajor)
	fillRandom(v.Data, 1)
	k := v.Reshape(KMajor)
	if k.Layout != KMajor {
		t.Fatalf("Reshape layout = %v", k.Layout)
	}
	back := k.Reshape(IMajor)
	for n := range v.Data {
		if v.Data[n] != back.Data[n] {
			t.Fatalf("round trip mismatch at %d: %v vs %v", n, v.Data[n], back.Data[n])
		}
	}
	// Voxel values must be preserved under the layout change.
	for kk := 0; kk < v.Nz; kk++ {
		for j := 0; j < v.Ny; j++ {
			for i := 0; i < v.Nx; i++ {
				if v.At(i, j, kk) != k.At(i, j, kk) {
					t.Fatalf("reshape changed voxel (%d,%d,%d)", i, j, kk)
				}
			}
		}
	}
}

func TestReshapeSameLayoutIsCopy(t *testing.T) {
	v := New(2, 2, 2, IMajor)
	c := v.Reshape(IMajor)
	c.Data[0] = 42
	if v.Data[0] == 42 {
		t.Error("Reshape to same layout aliases the source")
	}
}

func TestCloneIndependent(t *testing.T) {
	v := New(2, 3, 4, KMajor)
	c := v.Clone()
	c.Data[5] = 9
	if v.Data[5] == 9 {
		t.Error("Clone aliases source data")
	}
	if c.Layout != v.Layout || c.Nx != v.Nx {
		t.Error("Clone lost metadata")
	}
}

func TestSliceZRoundTrip(t *testing.T) {
	v := New(4, 3, 2, IMajor)
	fillRandom(v.Data, 7)
	s := v.SliceZ(1)
	if s.W != 4 || s.H != 3 {
		t.Fatalf("slice size %dx%d", s.W, s.H)
	}
	for j := 0; j < 3; j++ {
		for i := 0; i < 4; i++ {
			if s.At(i, j) != v.At(i, j, 1) {
				t.Fatalf("slice mismatch at (%d,%d)", i, j)
			}
		}
	}
	w := New(4, 3, 2, KMajor)
	if err := w.SetSliceZ(1, s); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		for i := 0; i < 4; i++ {
			if w.At(i, j, 1) != v.At(i, j, 1) {
				t.Fatalf("SetSliceZ mismatch at (%d,%d)", i, j)
			}
		}
	}
	if err := w.SetSliceZ(0, NewImage(2, 2)); err == nil {
		t.Error("SetSliceZ with wrong size should fail")
	}
}

func TestRMSE(t *testing.T) {
	a := New(3, 3, 3, IMajor)
	b := New(3, 3, 3, IMajor)
	r, err := RMSE(a, b)
	if err != nil || r != 0 {
		t.Fatalf("RMSE of zeros = %v, %v", r, err)
	}
	b.Fill(2)
	r, _ = RMSE(a, b)
	if math.Abs(r-2) > 1e-12 {
		t.Errorf("RMSE of 0 vs 2 = %v", r)
	}
	// Layout-mixed comparison must agree with same-layout comparison.
	c := b.Reshape(KMajor)
	r2, _ := RMSE(a, c)
	if math.Abs(r2-r) > 1e-12 {
		t.Errorf("mixed-layout RMSE = %v, want %v", r2, r)
	}
	_, err = RMSE(a, New(2, 2, 2, IMajor))
	if err == nil {
		t.Error("RMSE with mismatched dims should fail")
	}
}

func TestRelRMSE(t *testing.T) {
	a, b := New(3, 3, 3, IMajor), New(3, 3, 3, IMajor)
	b.Fill(2)
	if r, err := RelRMSE(a, b); err != nil || r != 2 {
		t.Errorf("RelRMSE against an all-zero ref = %v, %v, want the unscaled 2", r, err)
	}
	a.Fill(-4) // peak magnitude 4, error 6
	if r, _ := RelRMSE(a, b); r != 1.5 {
		t.Errorf("RelRMSE = %v, want 6/4", r)
	}
	if _, err := RelRMSE(a, New(2, 2, 2, IMajor)); err == nil {
		t.Error("RelRMSE with mismatched dims should fail")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := New(2, 2, 2, IMajor)
	b := New(2, 2, 2, KMajor)
	b.Set(1, 0, 1, -3)
	d, err := MaxAbsDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 3 {
		t.Errorf("MaxAbsDiff = %v, want 3", d)
	}
}

func TestSummarize(t *testing.T) {
	v := New(2, 2, 1, IMajor)
	copy(v.Data, []float32{1, 2, 3, 4})
	s := v.Summarize()
	if s.Min != 1 || s.Max != 4 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if math.Abs(s.Mean-2.5) > 1e-12 {
		t.Errorf("mean = %v", s.Mean)
	}
	if math.Abs(s.Std-math.Sqrt(1.25)) > 1e-9 {
		t.Errorf("std = %v", s.Std)
	}
}

// Property: reshape is an involution for arbitrary dimensions.
func TestReshapeProperty(t *testing.T) {
	f := func(nx, ny, nz uint8, seed int64) bool {
		x, y, z := int(nx%5)+1, int(ny%5)+1, int(nz%5)+1
		v := New(x, y, z, IMajor)
		fillRandom(v.Data, seed)
		back := v.Reshape(KMajor).Reshape(IMajor)
		for n := range v.Data {
			if v.Data[n] != back.Data[n] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLayoutString(t *testing.T) {
	if IMajor.String() != "i-major" || KMajor.String() != "k-major" {
		t.Error("Layout.String mismatch")
	}
	if Layout(9).String() == "" {
		t.Error("unknown layout should still format")
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0,1,1) should panic")
		}
	}()
	New(0, 1, 1, IMajor)
}

// kToIWalk is Reshape's k-major to i-major walk as it was before
// KMajorToIMajor: the destination in order, one source voxel at a time.
func kToIWalk(dst, src []float32, nx, ny, nz int) {
	n := 0
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				dst[n] = src[(i*ny+j)*nz+k]
				n++
			}
		}
	}
}

// The blocked transpose must equal the voxel walk bit for bit on one voxel,
// on odd shapes with a partial last block (13×7×9), on fewer planes than a
// block (2h < planeBlock: 5×3×2, 4×4×6), and at volume_heavy's slab pair
// (128×128×64); and Reshape must be it.
func TestKMajorToIMajorMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, d := range [][3]int{{1, 1, 1}, {13, 7, 9}, {5, 3, 2}, {4, 4, 6}, {3, 5, 17}, {128, 128, 64}} {
		nx, ny, nz := d[0], d[1], d[2]
		src := New(nx, ny, nz, KMajor)
		for n := range src.Data {
			src.Data[n] = rng.Float32()
		}
		want := make([]float32, len(src.Data))
		kToIWalk(want, src.Data, nx, ny, nz)
		got := make([]float32, len(src.Data))
		KMajorToIMajor(got, src.Data, nx, ny, nz)
		for n := range want {
			if math.Float32bits(got[n]) != math.Float32bits(want[n]) {
				t.Fatalf("%d×%d×%d: element %d = %v, walk gives %v", nx, ny, nz, n, got[n], want[n])
			}
		}
		if r := src.Reshape(IMajor); !slices.Equal(r.Data, want) {
			t.Fatalf("%d×%d×%d: Reshape differs from the walk", nx, ny, nz)
		}
	}
}

// BenchmarkKMajorToIMajor times the row root's transpose of volume_heavy's
// slab pair (128×128×64) against the voxel walk it replaced.
func BenchmarkKMajorToIMajor(b *testing.B) {
	const nx, ny, nz = 128, 128, 64
	src := make([]float32, nx*ny*nz)
	dst := make([]float32, len(src))
	for _, leg := range []struct {
		name string
		fn   func(dst, src []float32, nx, ny, nz int)
	}{{"blocked", KMajorToIMajor}, {"walk", kToIWalk}} {
		b.Run(leg.name, func(b *testing.B) {
			b.SetBytes(int64(4 * len(src)))
			for i := 0; i < b.N; i++ {
				leg.fn(dst, src, nx, ny, nz)
			}
		})
	}
}
