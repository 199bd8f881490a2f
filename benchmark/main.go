// Command benchmark is the repository's one benchmark: it boots the real
// serving stack in-process, drives it through pkg/client with a seeded
// workload, checks what comes back, and prints every metric by name.
//
//	benchmark -workload volume_heavy -seed 1 -seconds 18            # end-to-end metrics
//	benchmark -workload volume_heavy -seed 1 -seconds 18 -trace 1   # per-layer metrics + span file
//	benchmark -selfcheck -seed 1 -seconds 18                        # does the benchmark repeat itself?
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics of the pass that ran. See README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
)

func main() {
	name := flag.String("workload", "", "workload to run: volume_heavy, projection_heavy, progressive_stream or fleet_mixed")
	seed := flag.Int64("seed", 1, "workload seed: same seed, same inputs")
	seconds := flag.Float64("seconds", 18, "how long to measure")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced pass, per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice on -seed and compare the end-to-end metrics against BENCHMARK.json's bounds")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *trace, *selfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, selfcheck bool) error {
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	ctx := context.Background()
	if selfcheck {
		return runSelfcheck(ctx, seed, seconds)
	}
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	res, err := runWorkload(ctx, runConfig{w: w, seed: seed, seconds: seconds, trace: trace == 1, log: os.Stdout, outDir: outDir()})
	if err != nil {
		return err
	}
	res.report(os.Stdout)
	defs, vals := res.metrics()
	if err := newOutcome(defs, vals, res.attempted, res.failed).writeLine(os.Stdout); err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", res.failed, res.attempted)
	}
	return nil
}

// outDir is benchmark/out when run from the repository root (as run.sh
// does) and out when run from this directory.
func outDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return "benchmark/out"
	}
	return "out"
}
