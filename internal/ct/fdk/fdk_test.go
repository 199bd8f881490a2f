package fdk

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"ifdk/internal/ct/backproject"
	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/internal/ct/projector"
	"ifdk/internal/engine"
	"ifdk/internal/race"
	"ifdk/pkg/volume"
)

// reconstructionCase runs the full pipeline on an analytic phantom. Every
// pooled buffer it takes goes back to the engine.
func reconstructionCase(t *testing.T, ph phantom.Phantom, g geometry.Params, cfg Config) *volume.Volume {
	t.Helper()
	proj := projector.AnalyticAll(ph, g, 0)
	base := engine.InUseBytes()
	vol, err := Reconstruct(g, proj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if held := engine.InUseBytes() - base; held != 0 {
		t.Errorf("Reconstruct left %d pooled bytes checked out", held)
	}
	return vol
}

// The absolute scale of the FDK chain: a uniform sphere must reconstruct to
// its density at the centre. This pins the θ·d²·τ/2 constant folded into
// the filter (a wrong constant shows up here as a multiplicative bias).
func TestSphereReconstructsDensity(t *testing.T) {
	g := geometry.Default(64, 64, 64, 32, 32, 32)
	const rho = 1.0
	ph := phantom.UniformSphere(g.FOVRadius()*0.55, rho)
	vol := reconstructionCase(t, ph, g, Config{})
	centre := float64(vol.At(16, 16, 16))
	if math.Abs(centre-rho) > 0.12*rho {
		t.Errorf("centre voxel = %g, want ≈ %g (±12%%)", centre, rho)
	}
	// Well outside the sphere the value should be near zero.
	edge := float64(vol.At(1, 1, 16))
	if math.Abs(edge) > 0.12*rho {
		t.Errorf("outside voxel = %g, want ≈ 0", edge)
	}
}

// E11: the pipeline (Alg. 4) agrees with the same filtered projections
// back-projected by the standard Alg. 2 within the paper's RMSE bound on a
// real reconstruction.
func TestPipelinesAgree(t *testing.T) {
	g := geometry.Default(48, 48, 36, 24, 24, 24)
	ph := phantom.SheppLogan3D(g.FOVRadius() * 0.9)
	proj := projector.AnalyticAll(ph, g, 0)
	prop, err := Reconstruct(g, proj, Config{})
	if err != nil {
		t.Fatal(err)
	}
	flt, err := filter.New(g, filter.RamLak)
	if err != nil {
		t.Fatal(err)
	}
	task := backproject.Task{Mats: geometry.ProjectionMatrices(g)}
	for _, p := range proj {
		q := volume.NewImage(g.Nu, g.Nv)
		if err := flt.ApplyInto(p, q); err != nil {
			t.Fatal(err)
		}
		task.Proj = append(task.Proj, q)
	}
	std := volume.New(g.Nx, g.Ny, g.Nz, volume.IMajor)
	if err := backproject.Standard(task, std, backproject.Options{}); err != nil {
		t.Fatal(err)
	}
	r, err := volume.RMSE(std, prop)
	if err != nil {
		t.Fatal(err)
	}
	s := std.Summarize()
	scale := math.Max(math.Abs(float64(s.Min)), math.Abs(float64(s.Max)))
	if r/scale > 1e-5 {
		t.Errorf("relative RMSE standard vs proposed = %g, want < 1e-5", r/scale)
	}
}

// The reconstruction should resemble the voxelized ground truth: high
// correlation on the central slice.
func TestSheppLoganFidelity(t *testing.T) {
	g := geometry.Default(64, 64, 72, 32, 32, 32)
	ph := phantom.SheppLogan3D(g.FOVRadius() * 0.9)
	vol := reconstructionCase(t, ph, g, Config{})
	truth := ph.Voxelize(g)
	rec := vol.SliceZ(16)
	ref := truth.SliceZ(16)
	if c := correlation(rec.Data, ref.Data); c < 0.85 {
		t.Errorf("central-slice correlation = %g, want > 0.85", c)
	}
}

func correlation(a, b []float32) float64 {
	var ma, mb float64
	for i := range a {
		ma += float64(a[i])
		mb += float64(b[i])
	}
	n := float64(len(a))
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da := float64(a[i]) - ma
		db := float64(b[i]) - mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

func TestWindowChangesResult(t *testing.T) {
	g := geometry.Default(48, 48, 24, 16, 16, 16)
	ph := phantom.UniformSphere(g.FOVRadius()*0.5, 1)
	proj := projector.AnalyticAll(ph, g, 0)
	ramLak, err := Reconstruct(g, proj, Config{Window: filter.RamLak})
	if err != nil {
		t.Fatal(err)
	}
	hann, err := Reconstruct(g, proj, Config{Window: filter.Hann})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := volume.RMSE(ramLak, hann)
	if r == 0 {
		t.Error("window had no effect on reconstruction")
	}
}

func TestReconstructValidatesInput(t *testing.T) {
	g := geometry.Default(32, 32, 8, 8, 8, 8)
	if _, err := Reconstruct(g, nil, Config{}); err == nil {
		t.Error("Reconstruct with no projections should fail")
	}
}

func TestOutputLayoutIsIMajor(t *testing.T) {
	g := geometry.Default(32, 32, 8, 8, 8, 8)
	ph := phantom.UniformSphere(g.FOVRadius()*0.5, 1)
	proj := projector.AnalyticAll(ph, g, 0)
	vol, err := Reconstruct(g, proj, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if vol.Layout != volume.IMajor {
		t.Errorf("output layout = %v", vol.Layout)
	}
}

// The serial loop holds one batch of blocks at a time and allocates nothing
// per batch: a Reconstruct call allocates as many objects at Np = 96 (three
// batches) as at Np = 32 (one), serially and on two workers, and every
// pooled byte goes back. Pooled scheduler descriptors may move between
// processors when helpers run, so the two-worker leg allows one object of
// slack. A collection inside the measured runs empties the sync.Pools
// under the engine's pools and its scheduler, and their refill counts as
// allocations. Whether one falls there depends on the garbage earlier tests
// left on the heap (under -shuffle=1792251965641831137 one did, in the
// Np = 96 leg), so each leg starts right after a collection.
func TestReconstructSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	base := engine.InUseBytes()
	for _, workers := range []int{1, 2} {
		var allocs [2]float64
		for n, np := range []int{32, 96} {
			g := geometry.Default(32, 24, np, 16, 16, 15)
			proj := projector.AnalyticAll(phantom.UniformSphere(g.FOVRadius()*0.5, 1), g, 0)
			run := func() {
				if _, err := Reconstruct(g, proj, Config{Workers: workers}); err != nil {
					t.Fatal(err)
				}
			}
			runtime.GC()
			for i := 0; i < 5; i++ { // warm the pools
				run()
			}
			allocs[n] = testing.AllocsPerRun(20, run)
		}
		slack := float64(workers - 1)
		if allocs[1] > allocs[0]+slack {
			t.Errorf("workers=%d: Reconstruct allocates %.1f objects at Np = 96, %.1f at Np = 32", workers, allocs[1], allocs[0])
		}
		t.Logf("workers=%d: %.1f objects per call at Np = 32, %.1f at Np = 96", workers, allocs[0], allocs[1])
	}
	if held := engine.InUseBytes() - base; held != 0 {
		t.Errorf("Reconstruct left %d pooled bytes checked out", held)
	}
}

// A fill error ends the reconstruction with the lowest failing projection's
// error and returns every pooled block.
func TestReconstructFromFillError(t *testing.T) {
	g := geometry.Default(32, 24, 40, 16, 16, 16)
	base := engine.InUseBytes()
	boom := errors.New("boom")
	_, _, err := ReconstructFrom(g, func(flt *filter.Filterer, s int, block []float32) error {
		if s >= 33 {
			return fmt.Errorf("projection %d: %w", s, boom)
		}
		clear(block)
		return nil
	}, Config{Workers: 3})
	if !errors.Is(err, boom) || err.Error() != "projection 33: boom" {
		t.Errorf("error %v, want projection 33's", err)
	}
	if held := engine.InUseBytes() - base; held != 0 {
		t.Errorf("a failed ReconstructFrom left %d pooled bytes checked out", held)
	}
}
