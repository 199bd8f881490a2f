package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// manifest is BENCHMARK.json, the benchmark's contract with the driver.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// readManifest finds BENCHMARK.json from the repository root or from this
// directory.
func readManifest() (manifest, error) {
	var m manifest
	blob, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		blob, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(blob, &m)
}

// runSelfcheck runs every workload twice on the same seed, each run a child
// process of its own exactly as the driver makes them (peak_rss_mb is a
// process-wide high-water mark), and prints the two sets of end-to-end metrics
// side by side. It fails when the second run is worse than the first by more
// than a metric's bound: a benchmark that cannot repeat itself within its own
// bounds cannot gate anything.
func runSelfcheck(ctx context.Context, seed int64, seconds float64) error {
	m, err := readManifest()
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bad := 0
	for _, w := range workloads {
		var runs [2]outcome
		var stamps [2]string
		for i := range runs {
			fmt.Printf("selfcheck: %s run %d of 2\n", w.name, i+1)
			cmd := exec.CommandContext(ctx, self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &runs[i]); err != nil {
				return fmt.Errorf("%s: result line: %w", w.name, err)
			}
			stamps[i] = strings.TrimSpace(lines[len(lines)-2]) // the closing stamp precedes the result line
		}
		fmt.Printf("%s seed %d\n  first:  %s\n  second: %s\n", w.name, seed, stamps[0], stamps[1])
		fmt.Printf("  %-16s %14s %14s %9s %7s\n", "metric", "first", "second", "worse by", "bound")
		for _, d := range m.EndToEnd {
			a, b := runs[0].Metrics[d.Name].Value, runs[1].Metrics[d.Name].Value
			worse := ratio(b-a, a)
			if d.Better == "higher" {
				worse = ratio(a-b, a)
			}
			verdict := ""
			if worse > d.Bound {
				verdict = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("  %-16s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", d.Name, a, b, 100*worse, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metrics repeated outside their bound", bad)
	}
	return nil
}
