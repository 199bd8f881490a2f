package backproject

import (
	"math"
	"math/rand"
	"testing"

	"ifdk/internal/ct/geometry"
	"ifdk/pkg/volume"
)

// randomTask builds projection matrices from a real geometry and fills the
// projections with smooth pseudo-random data. Back-projection equivalence
// tests do not need physically meaningful projections.
func randomTask(g geometry.Params, seed int64) Task {
	rng := rand.New(rand.NewSource(seed))
	t := Task{Mats: geometry.ProjectionMatrices(g)}
	for s := 0; s < g.Np; s++ {
		img := volume.NewImage(g.Nu, g.Nv)
		for n := range img.Data {
			img.Data[n] = rng.Float32()
		}
		t.Proj = append(t.Proj, img)
	}
	return t
}

func smallGeom() geometry.Params {
	return geometry.Default(48, 48, 24, 20, 20, 20)
}

func relRMSE(t *testing.T, a, b *volume.Volume) float64 {
	t.Helper()
	r, err := volume.RMSE(a, b)
	if err != nil || math.IsNaN(r) { // NaN: a read after release (engine poisons released buffers)
		t.Fatalf("RMSE %g: %v", r, err)
	}
	s := a.Summarize()
	scale := math.Max(math.Abs(float64(s.Min)), math.Abs(float64(s.Max)))
	if scale == 0 {
		return r
	}
	return r / scale
}

// E11: the proposed algorithm must match the standard one within the
// paper's RMSE < 1e-5 verification bound (Sec. 5.1).
func TestProposedMatchesStandard(t *testing.T) {
	g := smallGeom()
	task := randomTask(g, 1)
	std := volume.New(g.Nx, g.Ny, g.Nz, volume.IMajor)
	if err := Standard(task, std, Options{}); err != nil {
		t.Fatal(err)
	}
	prop := volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
	if err := Proposed(task, prop, Options{}); err != nil {
		t.Fatal(err)
	}
	if r := relRMSE(t, std, prop); r > 1e-5 {
		t.Errorf("relative RMSE standard vs proposed = %g, want < 1e-5", r)
	}
}

func TestProposedOddNz(t *testing.T) {
	g := smallGeom()
	g.Nz = 15
	task := randomTask(g, 2)
	std := volume.New(g.Nx, g.Ny, g.Nz, volume.IMajor)
	if err := Standard(task, std, Options{}); err != nil {
		t.Fatal(err)
	}
	prop := volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
	if err := Proposed(task, prop, Options{}); err != nil {
		t.Fatal(err)
	}
	if r := relRMSE(t, std, prop); r > 1e-5 {
		t.Errorf("odd-Nz relative RMSE = %g", r)
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	g := smallGeom()
	task := randomTask(g, 4)
	a := volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
	b := volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
	if err := Proposed(task, a, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := Proposed(task, b, Options{Workers: 7}); err != nil {
		t.Fatal(err)
	}
	for n := range a.Data {
		if a.Data[n] != b.Data[n] {
			t.Fatalf("worker-count changed result at voxel %d: %v vs %v", n, a.Data[n], b.Data[n])
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := smallGeom()
	task := randomTask(g, 6)
	a := volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
	b := volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
	for _, v := range []*volume.Volume{a, b} {
		if err := Proposed(task, v, Options{Workers: 4}); err != nil {
			t.Fatal(err)
		}
	}
	for n := range a.Data {
		if a.Data[n] != b.Data[n] {
			t.Fatal("repeated runs differ")
		}
	}
}

// A delta projection hitting the exact centre pixel reconstructs the centre
// voxel with weight 1/d² — a closed-form check of the weighting chain.
func TestCenterDeltaWeight(t *testing.T) {
	g := geometry.Default(64, 64, 1, 17, 17, 17) // odd: centre voxel on-grid
	g.Np = 1
	mats := geometry.ProjectionMatrices(g)
	img := volume.NewImage(g.Nu, g.Nv)
	// The centre voxel projects to the detector centre (non-integer for an
	// even detector): set the 4 neighbouring pixels so bilinear interp
	// returns exactly 1 there.
	cu, cv := g.DetCenterU(), g.DetCenterV()
	for _, du := range []int{0, 1} {
		for _, dv := range []int{0, 1} {
			img.Set(int(cu)+du, int(cv)+dv, 1)
		}
	}
	task := Task{Mats: mats, Proj: []*volume.Image{img}}
	vol := volume.New(g.Nx, g.Ny, g.Nz, volume.IMajor)
	if err := Standard(task, vol, Options{}); err != nil {
		t.Fatal(err)
	}
	got := float64(vol.At(8, 8, 8))
	want := 1 / (g.SAD * g.SAD)
	if math.Abs(got-want) > 1e-3*want {
		t.Errorf("centre voxel = %g, want %g", got, want)
	}
}

func TestValidateErrors(t *testing.T) {
	g := smallGeom()
	good := randomTask(g, 7)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
	if err := (Task{}).Validate(); err == nil {
		t.Error("empty task accepted")
	}
	bad := good
	bad.Mats = bad.Mats[:len(bad.Mats)-1]
	if err := bad.Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
	mixed := randomTask(g, 8)
	mixed.Proj[2] = volume.NewImage(3, 3)
	if err := mixed.Validate(); err == nil {
		t.Error("mixed projection sizes accepted")
	}
	nilProj := randomTask(g, 9)
	nilProj.Proj[0] = nil
	if err := nilProj.Validate(); err == nil {
		t.Error("nil projection accepted")
	}
}

func TestLayoutErrors(t *testing.T) {
	g := smallGeom()
	task := randomTask(g, 10)
	if err := Standard(task, volume.New(4, 4, 4, volume.KMajor), Options{}); err == nil {
		t.Error("Standard accepted a k-major volume")
	}
	if err := Proposed(task, volume.New(4, 4, 4, volume.IMajor), Options{}); err == nil {
		t.Error("Proposed accepted an i-major volume")
	}
}

func TestAccumulatesIntoExistingVolume(t *testing.T) {
	// Back-projection adds to I rather than overwriting (Alg. 2 line 10) —
	// the property iterative methods rely on (Sec. 1).
	g := smallGeom()
	task := randomTask(g, 11)
	once := volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
	if err := Proposed(task, once, Options{}); err != nil {
		t.Fatal(err)
	}
	twice := volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
	for n := 0; n < 2; n++ {
		if err := Proposed(task, twice, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for n := range once.Data {
		want := once.Data[n] * 2
		if math.Abs(float64(twice.Data[n]-want)) > 1e-5*(1+math.Abs(float64(want))) {
			t.Fatalf("voxel %d: %v after two passes, want %v", n, twice.Data[n], want)
		}
	}
}

func benchTask(b *testing.B) (geometry.Params, Task) {
	g := geometry.Default(128, 128, 32, 64, 64, 64)
	return g, randomTask(g, 42)
}

func BenchmarkStandard(b *testing.B) {
	g, task := benchTask(b)
	vol := volume.New(g.Nx, g.Ny, g.Nz, volume.IMajor)
	b.SetBytes(int64(g.Nx) * int64(g.Ny) * int64(g.Nz) * int64(g.Np) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Standard(task, vol, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProposed(b *testing.B) {
	g, task := benchTask(b)
	vol := volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
	b.SetBytes(int64(g.Nx) * int64(g.Ny) * int64(g.Nz) * int64(g.Np) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Proposed(task, vol, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
