package bench

import (
	"strings"
	"testing"

	"ifdk/internal/gpusim"
	"ifdk/internal/perfmodel"
)

func quickEst() gpusim.EstimateConfig {
	return gpusim.EstimateConfig{SampleWarps: 48, BatchSamples: 1}
}

func TestTable4ProblemsMatchPaper(t *testing.T) {
	problems := Table4Problems()
	if len(problems) != 15 {
		t.Fatalf("Table 4 has %d problems, want 15", len(problems))
	}
	if problems[0].String() != "512x512x1024->128x128x128" {
		t.Errorf("first problem = %s", problems[0])
	}
	// α of the first row is 512·512·1024 / 128³ = 128 (Table 4).
	if a := problems[0].Alpha(); a != 128 {
		t.Errorf("first α = %g, want 128", a)
	}
	last := problems[14]
	if last.String() != "2048x2048x1024->1024x1024x2048" {
		t.Errorf("last problem = %s", last)
	}
	if a := last.Alpha(); a != 2 {
		t.Errorf("last α = %g, want 2", a)
	}
}

func TestTable4RowsAndNA(t *testing.T) {
	rows := Table4(gpusim.TeslaV100(), quickEst())
	if len(rows) != 15 {
		t.Fatalf("%d rows", len(rows))
	}
	naCount := 0
	for _, row := range rows {
		if len(row.Reports) != len(gpusim.Kernels) {
			t.Fatalf("row has %d reports", len(row.Reports))
		}
		for ki, rep := range row.Reports {
			if !rep.Supported {
				naCount++
				if gpusim.Kernels[ki] != gpusim.RTK32 {
					t.Errorf("unexpected N/A for %v on %s", gpusim.Kernels[ki], row.Problem)
				}
			}
		}
	}
	// RTK-32 is N/A exactly for the three 1k×1k×2k outputs (8 GiB).
	if naCount != 3 {
		t.Errorf("N/A count = %d, want 3", naCount)
	}
	text := RenderTable4(rows)
	if !strings.Contains(text, "N/A") || !strings.Contains(text, "RTK-32") {
		t.Error("rendered table incomplete")
	}
	if strings.Count(text, "\n") < 16 {
		t.Error("rendered table too short")
	}
}

// E3: the abstract claims the proposed kernel is up to 1.6x faster than the
// standard implementation; the mean modelled speedup must comfortably
// exceed 1 and the max must reach at least 1.6.
func TestSpeedupClaim(t *testing.T) {
	rows := Table4(gpusim.TeslaV100(), quickEst())
	s := Speedup(rows)
	if s.Rows == 0 {
		t.Fatal("no comparable rows")
	}
	if s.Max < 1.6 {
		t.Errorf("max speedup %.2f, paper claims up to 1.6x", s.Max)
	}
	if s.LowRows == 0 {
		t.Fatal("no low-α rows")
	}
	if s.MeanLowAlpha < 1.4 {
		t.Errorf("mean low-α speedup %.2f, want ≥ 1.4 (paper ≈ 1.7)", s.MeanLowAlpha)
	}
	// At large α the transpose overhead lets RTK-32 win, as in the paper.
	if s.Min >= 1 {
		t.Errorf("min speedup %.2f — expected RTK-32 to win somewhere at large α", s.Min)
	}
}

func TestRenderTable3(t *testing.T) {
	text := RenderTable3()
	for _, want := range []string{"RTK-32", "Bp-Tex", "Tex-Tran", "Bp-L1", "L1-Tran"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table 3 missing %s", want)
		}
	}
}

func TestFig5Configs(t *testing.T) {
	mb := perfmodel.ABCI()
	for _, cfg := range []Fig5Config{Fig5a(), Fig5b(), Fig5c(), Fig5d()} {
		points, err := RunFig5(cfg, mb)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if len(points) != len(cfg.NGpus) {
			t.Fatalf("%s: %d points", cfg.Name, len(points))
		}
		text := RenderFig5(cfg, points)
		if !strings.Contains(text, cfg.Name) {
			t.Errorf("%s: render missing name", cfg.Name)
		}
		// Strong scaling: compute decreases monotonically.
		if cfg.WeakNp == 0 {
			for i := 1; i < len(points); i++ {
				if points[i].Res.SimCompute >= points[i-1].Res.SimCompute {
					t.Errorf("%s: compute not decreasing at %d GPUs", cfg.Name, points[i].NGpus)
				}
			}
		}
		// C=1 points have no reduce.
		if points[0].NGpus == cfg.R && points[0].Res.SimReduce != 0 {
			t.Errorf("%s: reduce nonzero at C=1", cfg.Name)
		}
	}
}

func TestTable5(t *testing.T) {
	points, err := Table5(perfmodel.ABCI())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 8 {
		t.Fatalf("%d rows, want 8 (4 per volume)", len(points))
	}
	for _, p := range points {
		if p.Res.Delta <= 1 {
			t.Errorf("%d GPUs: δ = %.2f, want > 1 (Table 5)", p.NGpus, p.Res.Delta)
		}
	}
	text := RenderTable5(points)
	if !strings.Contains(text, "delta") || !strings.Contains(text, "4096^3") {
		t.Error("Table 5 render incomplete")
	}
}

func TestFig6(t *testing.T) {
	series, err := Fig6(perfmodel.ABCI())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("%d series", len(series))
	}
	// GUPS grows along each series.
	for _, s := range series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Res.GUPS <= s.Points[i-1].Res.GUPS {
				t.Errorf("%s: GUPS not increasing at %d GPUs", s.Label, s.Points[i].NGpus)
			}
		}
	}
	// At 2048 GPUs the 8K output out-scales the 4K output (Sec. 5.3.3).
	last := func(s Fig6Series) float64 { return s.Points[len(s.Points)-1].Res.GUPS }
	if last(series[2]) <= last(series[1]) {
		t.Errorf("8K (%g) should exceed 4K (%g) at 2048 GPUs", last(series[2]), last(series[1]))
	}
	text := RenderFig6(series)
	if !strings.Contains(text, "8192^3") {
		t.Error("Fig 6 render incomplete")
	}
}

func TestFig7(t *testing.T) {
	res, err := Fig7(16, perfmodel.ABCI())
	if err != nil {
		t.Fatal(err)
	}
	if res.RMSEvsSerial > 1e-5 {
		t.Errorf("fig7 RMSE vs serial = %g", res.RMSEvsSerial)
	}
	if res.RealGUPS <= 0 {
		t.Error("fig7 real GUPS missing")
	}
	if res.CenterSlice == nil || res.CenterSlice.W != 16 {
		t.Error("fig7 centre slice missing")
	}
	if res.ModelGUPS < 300 || res.ModelGUPS > 4000 {
		t.Errorf("fig7 model GUPS = %g, paper reports 1,134", res.ModelGUPS)
	}
	if !strings.Contains(RenderFig7(res), "16 GPUs") {
		t.Error("fig7 render incomplete")
	}
	if _, err := Fig7(9, perfmodel.ABCI()); err == nil {
		t.Error("invalid fig7 scale accepted")
	}
}
