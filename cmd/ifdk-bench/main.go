// Command ifdk-bench regenerates every table and figure of the paper's
// evaluation section from the simulated substrates (paper Tables 3–5 and
// Figs. 5–7):
//
//	ifdk-bench table3          kernel characteristics (Table 3)
//	ifdk-bench table4          back-projection kernel GUPS (Table 4)
//	ifdk-bench table5          Tcompute breakdown and δ (Table 5)
//	ifdk-bench fig5a..fig5d    strong/weak scaling, 4K and 8K (Fig. 5)
//	ifdk-bench fig6            end-to-end GUPS (Fig. 6)
//	ifdk-bench fig7            volume-reduction demo (Fig. 7)
//	ifdk-bench all             everything above
package main

import (
	"flag"
	"fmt"
	"os"

	"ifdk/internal/bench"
	"ifdk/internal/ct/kernels"
	"ifdk/internal/gpusim"
	"ifdk/internal/perfmodel"
)

func main() {
	samples := flag.Int("samples", 256, "sampled warps per kernel estimate (higher = tighter)")
	fig7Scale := flag.Int("fig7-scale", 32, "voxels per side for the real fig7 run (multiple of 8)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ifdk-bench [flags] {table3|table4|table5|fig5a|fig5b|fig5c|fig5d|fig6|fig7|all}\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	if err := run(cmd, *samples, *fig7Scale); err != nil {
		fmt.Fprintln(os.Stderr, "ifdk-bench:", err)
		os.Exit(1)
	}
}

func run(cmd string, samples, fig7Scale int) error {
	mb := perfmodel.ABCI()
	est := gpusim.EstimateConfig{SampleWarps: samples}
	dev := gpusim.TeslaV100()
	all := cmd == "all"
	ran := false
	fmt.Printf("ifdk-bench: isa=%s\n\n", kernels.ISA())

	if all || cmd == "table3" {
		fmt.Println(bench.RenderTable3())
		ran = true
	}
	if all || cmd == "table4" {
		rows := bench.Table4(dev, est)
		fmt.Println(bench.RenderTable4(rows))
		s := bench.Speedup(rows)
		fmt.Printf("L1-Tran vs RTK-32 speedup: max %.2fx, mean %.2fx, mean(α≤8) %.2fx over %d rows\n",
			s.Max, s.Mean, s.MeanLowAlpha, s.Rows)
		fmt.Printf("(paper, Table 4/abstract: up to ≈1.6–1.8x in the low-α regime)\n\n")
		ran = true
	}
	if all || cmd == "table5" {
		points, err := bench.Table5(mb)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTable5(points))
		ran = true
	}
	// A slice, not a map: `all` prints Fig. 5's panels in a fixed order.
	for n, cfgFn := range []func() bench.Fig5Config{bench.Fig5a, bench.Fig5b, bench.Fig5c, bench.Fig5d} {
		if all || cmd == fmt.Sprintf("fig5%c", 'a'+n) {
			cfg := cfgFn()
			points, err := bench.RunFig5(cfg, mb)
			if err != nil {
				return err
			}
			fmt.Println(bench.RenderFig5(cfg, points))
			ran = true
		}
	}
	if all || cmd == "fig6" {
		series, err := bench.Fig6(mb)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderFig6(series))
		ran = true
	}
	if all || cmd == "fig7" {
		res, err := bench.Fig7(fig7Scale, mb)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderFig7(res))
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", cmd)
	}
	return nil
}
