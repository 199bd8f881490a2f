package gpusim

import (
	"testing"

	"ifdk/internal/ct/geometry"
	"ifdk/pkg/volume"
)

func newKVol(g geometry.Params) *volume.Volume {
	return volume.New(g.Nx, g.Ny, g.Nz, volume.KMajor)
}

// Estimates must be fully deterministic: the sampled walk uses no random
// source, so repeated runs agree bit-for-bit (a requirement for regenerable
// tables).
func TestEstimateDeterministic(t *testing.T) {
	dev := TeslaV100()
	pr := geometry.Problem{Nu: 512, Nv: 512, Np: 512, Nx: 256, Ny: 256, Nz: 256}
	for _, k := range Kernels {
		a := Estimate(dev, pr, k, estCfg())
		b := Estimate(dev, pr, k, estCfg())
		if a.GUPS != b.GUPS || a.DRAMBytes != b.DRAMBytes || a.CoreOps != b.CoreOps {
			t.Errorf("%v: estimate not deterministic", k)
		}
	}
}

// More sampled warps must not change the order-of-magnitude story — the
// estimator converges rather than drifting.
func TestEstimateSampleStability(t *testing.T) {
	dev := TeslaV100()
	pr := geometry.Problem{Nu: 512, Nv: 512, Np: 512, Nx: 256, Ny: 256, Nz: 256}
	small := Estimate(dev, pr, L1Tran, EstimateConfig{SampleWarps: 64, BatchSamples: 1})
	large := Estimate(dev, pr, L1Tran, EstimateConfig{SampleWarps: 512, BatchSamples: 4})
	ratio := small.GUPS / large.GUPS
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("estimate unstable across sampling budgets: %g vs %g GUPS", small.GUPS, large.GUPS)
	}
}

// Functional runs accumulate: two Run calls double the volume, the property
// iterative solvers rely on.
func TestRunAccumulates(t *testing.T) {
	g := geometry.Default(32, 32, 8, 12, 12, 12)
	proj := randomProjections(g, 11)
	once := newKVol(g)
	if err := Run(TeslaV100(), g, proj, L1Tran, once); err != nil {
		t.Fatal(err)
	}
	twice := newKVol(g)
	for n := 0; n < 2; n++ {
		if err := Run(TeslaV100(), g, proj, L1Tran, twice); err != nil {
			t.Fatal(err)
		}
	}
	for n := range once.Data {
		want := 2 * once.Data[n]
		got := twice.Data[n]
		diff := float64(got - want)
		if diff > 1e-4 || diff < -1e-4 {
			t.Fatalf("voxel %d: %g after two runs, want %g", n, got, want)
		}
	}
}
