package projector

import (
	"context"
	"errors"
	"math"
	"testing"

	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/pkg/volume"
)

func testGeom() geometry.Params {
	return geometry.Default(48, 48, 12, 24, 24, 24)
}

func TestAnalyticCentralPixel(t *testing.T) {
	g := testGeom()
	r := g.FOVRadius() * 0.5
	ph := phantom.UniformSphere(r, 1)
	img := Analytic(ph, g, 0)
	if img.W != g.Nu || img.H != g.Nv {
		t.Fatalf("projection size %dx%d", img.W, img.H)
	}
	// The exact central ray passes through the sphere centre; with an even
	// detector the centre falls between pixels, so evaluate the exact centre
	// via the ray API for the reference and check the nearest pixel is close.
	centreRay := geometry.DetectorRay(g, 0, g.DetCenterU(), g.DetCenterV())
	want := ph.LineIntegral(centreRay)
	if math.Abs(want-2*r) > 1e-9 {
		t.Fatalf("central integral = %g, want %g", want, 2*r)
	}
	got := float64(img.At(g.Nu/2, g.Nv/2))
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("central pixel = %g, want ≈ %g", got, want)
	}
}

func TestAnalyticAllMatchesSingle(t *testing.T) {
	g := testGeom()
	ph := phantom.SheppLogan3D(g.FOVRadius() * 0.9)
	all := AnalyticAll(ph, g, 2)
	if len(all) != g.Np {
		t.Fatalf("got %d projections", len(all))
	}
	for _, s := range []int{0, g.Np / 2, g.Np - 1} {
		single := Analytic(ph, g, s)
		r, err := volume.ImageRMSE(all[s], single)
		if err != nil || r != 0 {
			t.Errorf("s=%d: parallel projection differs (rmse %g, err %v)", s, r, err)
		}
	}
}

func TestProjectionSymmetryOppositeAngles(t *testing.T) {
	// For a phantom symmetric under 180° rotation about Z (a centred
	// sphere), opposite projections are mirror images in U.
	g := geometry.Default(32, 32, 8, 16, 16, 16)
	ph := phantom.UniformSphere(g.FOVRadius()*0.6, 1)
	a := Analytic(ph, g, 0)
	b := Analytic(ph, g, g.Np/2) // β + π
	var worst float64
	for v := 0; v < g.Nv; v++ {
		for u := 0; u < g.Nu; u++ {
			d := math.Abs(float64(a.At(u, v)) - float64(b.At(g.Nu-1-u, v)))
			if d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-4 {
		t.Errorf("opposite projections differ by %g", worst)
	}
}

func TestRaycastMatchesAnalytic(t *testing.T) {
	// Ray marching through the voxelized sphere should approximate the
	// analytic integrals (within discretization error).
	g := geometry.Default(32, 32, 4, 32, 32, 32)
	ph := phantom.UniformSphere(g.FOVRadius()*0.6, 1)
	vol := ph.Voxelize(g)
	exact := Analytic(ph, g, 1)
	marched := Raycast(vol, g, 1, DefaultStep(g))
	r, err := volume.ImageRMSE(exact, marched)
	if err != nil {
		t.Fatal(err)
	}
	s := exact.Summarize()
	if r > 0.15*float64(s.Max) {
		t.Errorf("raycast RMSE %g too large vs max %g", r, s.Max)
	}
}

func TestRaycastEmptyVolume(t *testing.T) {
	g := geometry.Default(16, 16, 4, 8, 8, 8)
	vol := volume.New(8, 8, 8, volume.IMajor)
	img := Raycast(vol, g, 0, DefaultStep(g))
	s := img.Summarize()
	if s.Min != 0 || s.Max != 0 {
		t.Errorf("projection of empty volume has range [%g, %g]", s.Min, s.Max)
	}
}

func TestParallelForCoversAll(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		hits := make([]int32, 37)
		parallelFor(len(hits), workers, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func BenchmarkAnalyticProjection64(b *testing.B) {
	g := geometry.Default(64, 64, 8, 32, 32, 32)
	ph := phantom.SheppLogan3D(g.FOVRadius() * 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analytic(ph, g, i%g.Np)
	}
}

func TestAnalyticAllCtxCancelled(t *testing.T) {
	g := testGeom()
	ph := phantom.UniformSphere(g.FOVRadius()*0.5, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: no projection may be rendered
	imgs, err := AnalyticAllCtx(ctx, ph, g, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if imgs != nil {
		t.Fatal("cancelled render returned projections")
	}
	// An alive context renders the full set, identical to AnalyticAll.
	imgs, err = AnalyticAllCtx(context.Background(), ph, g, 2)
	if err != nil || len(imgs) != g.Np {
		t.Fatalf("live render: %d projections, err %v", len(imgs), err)
	}
	for s, img := range imgs {
		if img == nil {
			t.Fatalf("projection %d missing", s)
		}
	}
}
