package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the benchmark
// around the call (the program under test is not instrumented). Spans of one
// job share its ID; Parent is the ID of the span that caused this one, 0 for
// a root. SelfNS, filled in when the trace is written, is the span's duration
// minus the part of it its children cover.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Job     string `json:"job,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer was created
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run and the untraced half of the traced
// run's jobs go through the same code.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID and the function that closes it.
func (t *tracer) start(name string, parent int, job string) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	begin := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name, StartNS: int64(begin)})
	id = len(t.spans)
	t.mu.Unlock()
	return id, func() {
		stop := time.Since(t.t0)
		t.mu.Lock()
		t.spans[id-1].EndNS = int64(stop)
		t.mu.Unlock()
	}
}

// setJob labels a span (and so its job's whole tree, through the parent
// links) once the job's ID is known, which is only after Submit returns.
func (t *tracer) setJob(id int, job string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Job = job
	t.mu.Unlock()
}

// finish computes self times and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := coveredByChildren(t.spans)
	for i := range t.spans {
		s := &t.spans[i]
		if s.Job == "" && s.Parent > 0 {
			s.Job = t.spans[s.Parent-1].Job // parents precede children
		}
		s.SelfNS = s.EndNS - s.StartNS - covered[s.ID]
	}
	return t.spans
}

// coveredByChildren returns, per span ID, the length of the union of its
// children's intervals (children of one parent may overlap: a job's event
// watch and slice stream run side by side).
func coveredByChildren(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	covered := map[int]int64{}
	for parent, cs := range kids {
		sort.Slice(cs, func(a, b int) bool { return cs[a].StartNS < cs[b].StartNS })
		var total, reach int64
		for _, c := range cs {
			from := max(c.StartNS, reach)
			if c.EndNS > from {
				total += c.EndNS - from
				reach = c.EndNS
			}
		}
		covered[parent] = total
	}
	return covered
}

// traceFile is what <workload>.trace.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Stamp    stamp  `json:"stamp"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	blob, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, tf.Workload+".trace.json")
	return path, os.WriteFile(path, blob, 0o644)
}
