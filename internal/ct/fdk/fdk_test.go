package fdk

import (
	"math"
	"testing"

	"ifdk/internal/ct/backproject"
	"ifdk/internal/ct/filter"
	"ifdk/internal/ct/geometry"
	"ifdk/internal/ct/phantom"
	"ifdk/internal/ct/projector"
	"ifdk/internal/engine"
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
		q, err := flt.Apply(p)
		if err != nil {
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
