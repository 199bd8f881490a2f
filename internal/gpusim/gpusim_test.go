package gpusim

import (
	"math"
	"testing"

	"ifdk/internal/ct/geometry"
)

func TestKernelStringsAndTable3(t *testing.T) {
	want := map[Kernel]Characteristics{
		RTK32:   {TextureCache: true},
		BpTex:   {TextureCache: true, TransposeVol: true},
		TexTran: {TextureCache: true, TransposeProj: true, TransposeVol: true},
		BpL1:    {TransposeProj: true, TransposeVol: true},
		L1Tran:  {L1Cache: true, TransposeProj: true, TransposeVol: true},
	}
	names := map[Kernel]string{
		RTK32: "RTK-32", BpTex: "Bp-Tex", TexTran: "Tex-Tran", BpL1: "Bp-L1", L1Tran: "L1-Tran",
	}
	for _, k := range Kernels {
		if k.Characteristics() != want[k] {
			t.Errorf("%v characteristics = %+v, want %+v", k, k.Characteristics(), want[k])
		}
		if k.String() != names[k] {
			t.Errorf("kernel name %q, want %q", k.String(), names[k])
		}
	}
	if RTK32.Proposed() || !L1Tran.Proposed() {
		t.Error("Proposed() classification wrong")
	}
}

func TestSupportedOutput(t *testing.T) {
	dev := TeslaV100()
	// 8 GB output: too large for RTK's dual buffer, fine for shflBP.
	eightGB := int64(8) << 30
	if RTK32.SupportedOutput(eightGB, dev) {
		t.Error("RTK-32 should not support an 8 GB output on a 16 GB device")
	}
	if !L1Tran.SupportedOutput(eightGB, dev) {
		t.Error("L1-Tran should support an 8 GB output")
	}
	if L1Tran.SupportedOutput(17<<30, dev) {
		t.Error("17 GB output cannot fit at all")
	}
	if !RTK32.SupportedOutput(1<<30, dev) {
		t.Error("RTK-32 should support a 1 GB output")
	}
}

func estCfg() EstimateConfig { return EstimateConfig{SampleWarps: 128, BatchSamples: 2} }

// Table-4 shape: the proposed L1-Tran kernel beats RTK-32 by a healthy
// factor on compute-heavy problems (α ≤ a few; the paper reports ≈1.6–1.8×).
func TestL1TranBeatsRTK32(t *testing.T) {
	dev := TeslaV100()
	pr := geometry.Problem{Nu: 512, Nv: 512, Np: 1024, Nx: 512, Ny: 512, Nz: 512}
	rtk := Estimate(dev, pr, RTK32, estCfg())
	l1 := Estimate(dev, pr, L1Tran, estCfg())
	if !rtk.Supported || !l1.Supported {
		t.Fatal("both kernels should support this problem")
	}
	ratio := l1.GUPS / rtk.GUPS
	if ratio < 1.2 || ratio > 3.5 {
		t.Errorf("L1-Tran/RTK-32 GUPS ratio = %g (L1 %g, RTK %g), want within [1.2, 3.5]",
			ratio, l1.GUPS, rtk.GUPS)
	}
}

// Table-4 shape: the uncached Bp-L1 kernel is far slower than L1-Tran.
func TestBpL1IsSlowest(t *testing.T) {
	dev := TeslaV100()
	pr := geometry.Problem{Nu: 512, Nv: 512, Np: 1024, Nx: 256, Ny: 256, Nz: 256}
	bp := Estimate(dev, pr, BpL1, estCfg())
	l1 := Estimate(dev, pr, L1Tran, estCfg())
	if bp.GUPS >= l1.GUPS {
		t.Errorf("Bp-L1 (%g GUPS) should be slower than L1-Tran (%g GUPS)", bp.GUPS, l1.GUPS)
	}
}

// Table-4 shape: performance collapses as α grows (small outputs amortize
// nothing).
func TestAlphaDegradation(t *testing.T) {
	dev := TeslaV100()
	big := geometry.Problem{Nu: 2048, Nv: 2048, Np: 1024, Nx: 1024, Ny: 1024, Nz: 1024}
	small := geometry.Problem{Nu: 2048, Nv: 2048, Np: 1024, Nx: 128, Ny: 128, Nz: 128}
	gBig := Estimate(dev, big, L1Tran, estCfg())
	gSmall := Estimate(dev, small, L1Tran, estCfg())
	if gSmall.GUPS >= gBig.GUPS {
		t.Errorf("α=1024 (%g GUPS) should be slower than α=4 (%g GUPS)", gSmall.GUPS, gBig.GUPS)
	}
}

// Table 4 prints N/A for RTK-32 when the output exceeds 8 GB.
func TestEstimateRTKUnsupported(t *testing.T) {
	dev := TeslaV100()
	pr := geometry.Problem{Nu: 512, Nv: 512, Np: 1024, Nx: 1024, Ny: 1024, Nz: 2048}
	rep := Estimate(dev, pr, RTK32, estCfg())
	if rep.Supported {
		t.Error("RTK-32 should be unsupported for a 1k×1k×2k output")
	}
	if rep.GUPS != 0 {
		t.Error("unsupported estimate should not report GUPS")
	}
}

// The texture path should be relatively insensitive to the projection
// transpose (paper observation I in Sec. 5.2).
func TestTextureInsensitiveToTranspose(t *testing.T) {
	dev := TeslaV100()
	pr := geometry.Problem{Nu: 512, Nv: 512, Np: 1024, Nx: 512, Ny: 512, Nz: 512}
	bt := Estimate(dev, pr, BpTex, estCfg())
	tt := Estimate(dev, pr, TexTran, estCfg())
	ratio := tt.KernelSeconds / bt.KernelSeconds
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("texture kernels diverge too much with transpose: ratio %g", ratio)
	}
}

func TestEstimateReportConsistency(t *testing.T) {
	dev := TeslaV100()
	pr := geometry.Problem{Nu: 512, Nv: 512, Np: 512, Nx: 256, Ny: 256, Nz: 256}
	for _, k := range Kernels {
		rep := Estimate(dev, pr, k, estCfg())
		if !rep.Supported {
			t.Fatalf("%v unsupported unexpectedly", k)
		}
		if rep.Updates != pr.Updates() {
			t.Errorf("%v: updates %g, want %g", k, rep.Updates, pr.Updates())
		}
		if rep.GUPS <= 0 || rep.TotalSeconds <= 0 || rep.CoreOps <= 0 {
			t.Errorf("%v: non-positive report fields: %+v", k, rep)
		}
		if rep.TotalSeconds < rep.KernelSeconds {
			t.Errorf("%v: total < kernel time", k)
		}
		ch := k.Characteristics()
		if ch.TransposeProj && rep.TransposeSeconds <= 0 {
			t.Errorf("%v: missing transpose time", k)
		}
		if !ch.TransposeProj && rep.TransposeSeconds != 0 {
			t.Errorf("%v: unexpected transpose time", k)
		}
		if rep.Bound() == "" {
			t.Errorf("%v: empty bound", k)
		}
		wantGUPS := rep.Updates / rep.TotalSeconds / (1 << 30)
		if math.Abs(rep.GUPS-wantGUPS)/wantGUPS > 1e-9 {
			t.Errorf("%v: GUPS inconsistent", k)
		}
	}
}

// The proposed kernel must do fewer core ops per update than the standard
// one — the 1/6 projection-cost reduction shows up as a large drop.
func TestCoreOpsReduction(t *testing.T) {
	dev := TeslaV100()
	pr := geometry.Problem{Nu: 512, Nv: 512, Np: 512, Nx: 256, Ny: 256, Nz: 256}
	rtk := Estimate(dev, pr, RTK32, estCfg())
	l1 := Estimate(dev, pr, L1Tran, estCfg())
	opsRTK := rtk.CoreOps / rtk.Updates
	opsL1 := l1.CoreOps / l1.Updates
	if opsL1 >= 0.7*opsRTK {
		t.Errorf("ops/update: proposed %g vs standard %g — expected ≥ 30%% reduction", opsL1, opsRTK)
	}
}

func TestV100Model(t *testing.T) {
	dev := TeslaV100()
	// 80 SMs × 64 cores × 1.53 GHz ≈ 7.8 TFMA/s (15.7 TFLOP/s).
	if f := dev.FP32PerSecond(); math.Abs(f-7.8336e12)/7.8336e12 > 1e-9 {
		t.Errorf("FP32PerSecond = %g", f)
	}
	if dev.MemBytes != 16<<30 {
		t.Errorf("V100 memory = %d", dev.MemBytes)
	}
}

func BenchmarkEstimateL1Tran(b *testing.B) {
	dev := TeslaV100()
	pr := geometry.Problem{Nu: 1024, Nv: 1024, Np: 1024, Nx: 512, Ny: 512, Nz: 512}
	for i := 0; i < b.N; i++ {
		Estimate(dev, pr, L1Tran, EstimateConfig{SampleWarps: 64, BatchSamples: 1})
	}
}
