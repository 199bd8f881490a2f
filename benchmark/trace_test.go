package main

import "testing"

// A job's watch and stream overlap: self time subtracts the union of the
// children's intervals, not their sum.
func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "job", Job: "j1", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "client.submit", StartNS: 0, EndNS: 10},
		{ID: 3, Parent: 1, Name: "client.watch", StartNS: 10, EndNS: 90},
		{ID: 4, Parent: 1, Name: "client.stream", StartNS: 20, EndNS: 95},
	}}
	spans := tr.finish()
	if got := spans[0].SelfNS; got != 5 { // 100 − |[0,10] ∪ [10,95]|
		t.Errorf("job self time = %d ns, want 5", got)
	}
	if got := spans[3].SelfNS; got != 75 {
		t.Errorf("leaf self time = %d ns, want its duration 75", got)
	}
	for _, s := range spans[1:] {
		if s.Job != "j1" {
			t.Errorf("span %q did not inherit its job's ID: %q", s.Name, s.Job)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id, end := tr.start("x", 0, "")
	end()
	tr.setJob(id, "j")
	if id != 0 {
		t.Errorf("nil tracer handed out span id %d", id)
	}
}
