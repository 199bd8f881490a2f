package gpusim

import (
	"testing"

	"ifdk/internal/ct/geometry"
)

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
