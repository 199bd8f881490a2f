package bench

import (
	"fmt"
	"strings"

	"ifdk/internal/ct/geometry"
	"ifdk/internal/perfmodel"
	"ifdk/internal/simcluster"
)

// FourK is the paper's 4K problem: 2048²×4096 → 4096³ (256 GiB output).
func FourK() geometry.Problem {
	return geometry.Problem{Nu: 2048, Nv: 2048, Np: 4096, Nx: 4096, Ny: 4096, Nz: 4096}
}

// EightK is the paper's 8K problem: 2048²×4096 → 8192³ (2 TiB output).
func EightK() geometry.Problem {
	return geometry.Problem{Nu: 2048, Nv: 2048, Np: 4096, Nx: 8192, Ny: 8192, Nz: 8192}
}

// TwoK is the smaller problem of Fig. 6/7: 2048²×4096 → 2048³.
func TwoK() geometry.Problem {
	return geometry.Problem{Nu: 2048, Nv: 2048, Np: 4096, Nx: 2048, Ny: 2048, Nz: 2048}
}

// ScalingPoint is one bar group of Fig. 5 (plus the Table 5 columns).
type ScalingPoint struct {
	NGpus int
	Res   simcluster.Result
}

// Fig5Config selects one of the four scaling sub-figures.
type Fig5Config struct {
	Name    string
	Problem geometry.Problem
	R       int
	NGpus   []int
	WeakNp  int // projections per GPU for weak scaling (0 = strong scaling)
}

// Fig5a is strong scaling of the 4K problem: R=32, C=Ngpus/32 (Fig. 5a).
func Fig5a() Fig5Config {
	return Fig5Config{Name: "fig5a strong 4K", Problem: FourK(), R: 32,
		NGpus: []int{32, 64, 128, 256, 512, 1024, 2048}}
}

// Fig5b is strong scaling of the 8K problem: R=256 (Fig. 5b).
func Fig5b() Fig5Config {
	return Fig5Config{Name: "fig5b strong 8K", Problem: EightK(), R: 256,
		NGpus: []int{256, 512, 1024, 2048}}
}

// Fig5c is weak scaling of the 4K problem: Np = 16·Ngpus (Fig. 5c).
func Fig5c() Fig5Config {
	cfg := Fig5a()
	cfg.Name = "fig5c weak 4K"
	cfg.WeakNp = 16
	return cfg
}

// Fig5d is weak scaling of the 8K problem: Np = 4·Ngpus (Fig. 5d).
func Fig5d() Fig5Config {
	cfg := Fig5b()
	cfg.Name = "fig5d weak 8K"
	cfg.WeakNp = 4
	return cfg
}

// RunFig5 simulates every GPU count of the sub-figure; Table 5 and Fig. 6
// run their configurations through it too.
func RunFig5(cfg Fig5Config, mb perfmodel.MicroBench) ([]ScalingPoint, error) {
	var out []ScalingPoint
	for _, n := range cfg.NGpus {
		pr := cfg.Problem
		if cfg.WeakNp > 0 {
			pr.Np = cfg.WeakNp * n
		}
		res, err := simcluster.Simulate(simcluster.Config{
			Problem: pr, R: cfg.R, C: n / cfg.R, MB: mb,
		})
		if err != nil {
			return nil, fmt.Errorf("%s at %d GPUs: %w", cfg.Name, n, err)
		}
		out = append(out, ScalingPoint{NGpus: n, Res: res})
	}
	return out, nil
}

// RenderFig5 prints the stacked series of one sub-figure: simulated
// ("measured") compute/D2H/store/reduce plus the model peak, like the bar
// annotations of Fig. 5.
func RenderFig5(cfg Fig5Config, points []ScalingPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s, R=%d\n", cfg.Name, cfg.Problem, cfg.R)
	fmt.Fprintf(&b, "%6s | %33s | %33s\n", "", "simulated (s)", "model peak (s)")
	fmt.Fprintf(&b, "%6s | %7s %7s %7s %7s | %7s %7s %7s %7s | %6s\n",
		"Ngpus", "Tcomp", "TD2H", "Tstore", "Tred", "Tcomp", "TD2H", "Tstore", "Tred", "total")
	for _, p := range points {
		r := p.Res
		fmt.Fprintf(&b, "%6d | %7.1f %7.1f %7.1f %7s | %7.1f %7.1f %7.1f %7s | %6.1f\n",
			p.NGpus,
			r.SimCompute, r.SimD2H, r.SimStore, naIfZero(r.SimReduce),
			r.Model.Compute, r.Model.Trans+r.Model.D2H, r.Model.Store, naIfZero(r.Model.Reduce),
			r.SimTotal)
	}
	return b.String()
}

func naIfZero(v float64) string {
	if v == 0 {
		return "N/A"
	}
	return fmt.Sprintf("%.1f", v)
}

// Table5 reproduces the Tcompute breakdown: Tflt, TAllGather, Tbp,
// Tcompute and δ for the strong-scaling configurations of Fig. 5a/5b.
func Table5(mb perfmodel.MicroBench) ([]ScalingPoint, error) {
	var out []ScalingPoint
	for _, cfg := range []Fig5Config{
		{Name: "table5 4K", Problem: FourK(), R: 32, NGpus: []int{32, 64, 128, 256}},
		{Name: "table5 8K", Problem: EightK(), R: 256, NGpus: []int{256, 512, 1024, 2048}},
	} {
		points, err := RunFig5(cfg, mb)
		if err != nil {
			return nil, err
		}
		out = append(out, points...)
	}
	return out, nil
}

// RenderTable5 formats the breakdown like the paper's Table 5.
func RenderTable5(points []ScalingPoint) string {
	var b strings.Builder
	b.WriteString("Table 5: details of Tcompute (simulated)\n")
	fmt.Fprintf(&b, "%-14s %6s %6s | %7s %10s %7s %9s %6s\n",
		"volume", "Ngpus", "Ncpus", "Tflt", "TAllGather", "Tbp", "Tcompute", "delta")
	for _, p := range points {
		r := p.Res
		vol := fmt.Sprintf("%d^3", r.Problem.Nx)
		fmt.Fprintf(&b, "%-14s %6d %6d | %7.1f %10.1f %7.1f %9.1f %6.2f\n",
			vol, p.NGpus, p.NGpus/2, r.SimFlt, r.SimAllGather, r.SimBp, r.SimCompute, r.Delta)
	}
	return b.String()
}

// Fig6Series computes the end-to-end GUPS of Fig. 6 for one output size.
type Fig6Series struct {
	Label  string
	R      int
	Points []ScalingPoint
}

// Fig6 evaluates the three output sizes over the paper's GPU counts.
func Fig6(mb perfmodel.MicroBench) ([]Fig6Series, error) {
	var out []Fig6Series
	for _, cfg := range []Fig5Config{
		{Name: "2048^3", Problem: TwoK(), R: 4, NGpus: []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}},
		{Name: "4096^3", Problem: FourK(), R: 32, NGpus: []int{32, 64, 128, 256, 512, 1024, 2048}},
		{Name: "8192^3", Problem: EightK(), R: 256, NGpus: []int{256, 512, 1024, 2048}},
	} {
		points, err := RunFig5(cfg, mb)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig6Series{Label: cfg.Name, R: cfg.R, Points: points})
	}
	return out, nil
}

// RenderFig6 prints the GUPS series.
func RenderFig6(series []Fig6Series) string {
	var b strings.Builder
	b.WriteString("Fig 6: end-to-end performance (GUPS, simulated)\n")
	fmt.Fprintf(&b, "%8s", "Ngpus")
	for _, s := range series {
		fmt.Fprintf(&b, " %10s", s.Label)
	}
	b.WriteByte('\n')
	gpus := series[0].Points
	for i := range gpus {
		fmt.Fprintf(&b, "%8d", series[0].Points[i].NGpus)
		n := series[0].Points[i].NGpus
		for _, s := range series {
			val := ""
			for _, p := range s.Points {
				if p.NGpus == n {
					val = fmt.Sprintf("%.0f", p.Res.GUPS)
				}
			}
			if val == "" {
				val = "-"
			}
			fmt.Fprintf(&b, " %10s", val)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
