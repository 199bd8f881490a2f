package main

import (
	"context"
	"io"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func sameMetrics(t *testing.T, what string, got []manifestMetric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark defines %d", what, len(got), len(want))
	}
	seen := map[string]bool{}
	for i, d := range want {
		g := got[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark defines %+v", what, i, g, d)
		}
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("%s: name %q or unit %q is outside the driver's alphabet", what, d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: %s is better %q", what, d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("%s: %s is named twice", what, d.name)
		}
		seen[d.name] = true
	}
}

// BENCHMARK.json and the benchmark must describe the same thing: the same
// workloads for the same reasons, the same metrics with the same units, each
// name used once and inside the driver's limits.
func TestManifestMatchesTheBenchmark(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	sameMetrics(t, "end_to_end", m.EndToEnd, endToEnd)
	sameMetrics(t, "per_layer", m.PerLayer, perLayer)
	if len(m.PerLayer) > 128 || len(m.EndToEnd) > 16 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the driver's 16 and 128", len(m.EndToEnd), len(m.PerLayer))
	}
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range endToEnd {
		for _, l := range perLayer {
			if d.name == l.name {
				t.Errorf("%s is both an end-to-end and a per-layer metric", d.name)
			}
		}
	}
	if m.EndToEnd[0].Name != "setup_s" || m.EndToEnd[0].Unit != "s" || m.EndToEnd[0].Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better: %+v", m.EndToEnd[0])
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if g := m.Workloads[i]; g.Name != w.name || g.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q because %q", i, g, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why is outside the driver's limits", w.name)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside 1..60", m.RunSeconds)
	}
}

func TestReadmeExplainsEveryName(t *testing.T) {
	blob, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(blob)
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.name+"`") {
			t.Errorf("README.md does not mention workload %s", w.name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		module, metric, _ := strings.Cut(d.name, ".")
		// The glossary groups rows: `core.load_s` … and `perfmodel.share_err_*`.
		group := "`" + module + "." + metric[:strings.LastIndex(metric, "_")+1] + "*`"
		if !strings.Contains(readme, "`"+d.name+"`") && !strings.Contains(readme, group) &&
			!(module == "core" && strings.Contains(readme, "`core.load_s` … `core.total_s`")) {
			t.Errorf("README.md does not explain %s", d.name)
		}
	}
}

// smoke runs every workload once per pass at toy size; the tests below share
// the results.
var smoke struct {
	once    sync.Once
	took    time.Duration
	results map[string][2]runResult // by workload: untraced, traced
	err     error
}

func runSmoke(t *testing.T) map[string][2]runResult {
	t.Helper()
	smoke.once.Do(func() {
		start := time.Now()
		smoke.results = map[string][2]runResult{}
		dir := t.TempDir()
		for _, w := range workloads {
			var pair [2]runResult
			for i, trace := range []bool{false, true} {
				pair[i], smoke.err = runWorkload(context.Background(), runConfig{
					w: w.toy(), seed: 1, seconds: 0.4, trace: trace, log: io.Discard, outDir: dir,
				})
				if smoke.err != nil {
					return
				}
			}
			smoke.results[w.name] = pair
		}
		smoke.took = time.Since(start)
	})
	if smoke.err != nil {
		t.Fatal(smoke.err)
	}
	return smoke.results
}

func TestSmokeAllWorkloadsAtToySize(t *testing.T) {
	results := runSmoke(t)
	if smoke.took > 10*time.Second {
		t.Errorf("the toy-sized smoke run took %v, want under 10s", smoke.took)
	}
	for name, pair := range results {
		for i, res := range pair {
			if res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s trace=%d: %d of %d operations failed", name, i, res.failed, res.attempted)
			}
		}
		for _, d := range endToEnd {
			if v := pair[0].e2e[d.name]; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", name, d.name, v)
			}
		}
	}
}

// What a run emits is exactly what BENCHMARK.json names, with its unit — and
// nothing else.
func TestEveryNamedMetricIsEmittedAndViceVersa(t *testing.T) {
	m, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range runSmoke(t) {
		for i, c := range []struct {
			defs  []metricDef
			vals  values
			named []manifestMetric
		}{{endToEnd, pair[0].e2e, m.EndToEnd}, {perLayer, pair[1].layers, m.PerLayer}} {
			out := newOutcome(c.defs, c.vals, 1, 0)
			if miss := c.vals.missing(c.defs); len(miss) > 0 {
				t.Errorf("%s trace=%d: not measured: %v", name, i, miss)
			}
			if len(out.Metrics) != len(c.named) {
				t.Errorf("%s trace=%d: emitted %d metrics, BENCHMARK.json names %d", name, i, len(out.Metrics), len(c.named))
			}
			for _, d := range c.named {
				if got, ok := out.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("%s trace=%d: %s emitted as %+v (present %v), BENCHMARK.json wants unit %q", name, i, d.Name, got, ok, d.Unit)
				}
			}
		}
	}
}
