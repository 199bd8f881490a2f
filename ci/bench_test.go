package ci

import (
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// benchRecord is one record of BENCH_e2e.json: the change side of one PR's
// interleaved benchmark pairs on one workload and seed.
type benchRecord struct {
	PR       int     `json:"pr"`
	Commit   *string `json:"commit"`
	Parent   string  `json:"parent"`
	Host     string  `json:"host"`
	Workload string  `json:"workload"`
	Seed     int     `json:"seed"`
	Pairs    int     `json:"pairs"`
	Metrics  map[string]struct {
		Median float64  `json:"median"`
		Q1     *float64 `json:"q1"`
		Q3     *float64 `json:"q3"`
	} `json:"metrics"`
}

// TestBenchTrajectory reads BENCH_e2e.json, the end-to-end trajectory each
// perf or simplicity PR extends with its own rows, against BENCHMARK.json
// (read only): every workload BENCHMARK.json declares has a record, every
// record names a declared workload and only declared end-to-end metrics,
// PR numbers never go down, and each record has a parent commit, a host
// stamp, at least one pair and, where it gives quartiles, q1 ≤ median ≤ q3.
// Every CHANGES.md entry from PR 46 on that has a "Bench" bullet has its
// records, so a measured PR cannot leave the trajectory.
func TestBenchTrajectory(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	readJSON(t, "../BENCHMARK.json", &spec)
	var traj struct {
		Records []benchRecord `json:"records"`
	}
	readJSON(t, "../BENCH_e2e.json", &traj)

	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = false
	}
	for _, m := range spec.EndToEnd {
		metrics[m.Name] = true
	}
	pr := 0
	for n, r := range traj.Records {
		seen, ok := workloads[r.Workload]
		switch {
		case !ok:
			t.Errorf("record %d (PR %d): workload %q is not in BENCHMARK.json", n, r.PR, r.Workload)
		case !seen:
			workloads[r.Workload] = true
		}
		if r.PR < pr {
			t.Errorf("record %d: PR %d after PR %d", n, r.PR, pr)
		}
		pr = max(pr, r.PR)
		if r.Parent == "" || r.Host == "" || r.Pairs < 1 || len(r.Metrics) == 0 {
			t.Errorf("record %d (PR %d, %s): parent %q, host %q, %d pairs, %d metrics", n, r.PR, r.Workload, r.Parent, r.Host, r.Pairs, len(r.Metrics))
		}
		for name, m := range r.Metrics {
			if !metrics[name] {
				t.Errorf("record %d (PR %d, %s): metric %q is not an end-to-end metric of BENCHMARK.json", n, r.PR, r.Workload, name)
			}
			if (m.Q1 == nil) != (m.Q3 == nil) || m.Q1 != nil && !(*m.Q1 <= m.Median && m.Median <= *m.Q3) {
				t.Errorf("record %d (PR %d, %s): %s median %v outside its quartiles", n, r.PR, r.Workload, name, m.Median)
			}
		}
	}
	for w, seen := range workloads {
		if !seen {
			t.Errorf("BENCHMARK.json workload %s has no record", w)
		}
	}

	changes, err := os.ReadFile("../CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[int]bool{}
	for _, r := range traj.Records {
		recorded[r.PR] = true
	}
	entry := 0
	for _, line := range strings.Split(string(changes), "\n") {
		if m := changesEntry.FindStringSubmatch(line); m != nil {
			entry, _ = strconv.Atoi(m[1])
		} else if entry >= 46 && strings.HasPrefix(line, "- Bench") && !recorded[entry] {
			t.Errorf("CHANGES.md: PR %d has a Bench bullet and BENCH_e2e.json no record of it", entry)
			recorded[entry] = true // one error per PR
		}
	}
}

// changesEntry matches the first line of a CHANGES.md entry.
var changesEntry = regexp.MustCompile(`^PR (\d+):`)

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
