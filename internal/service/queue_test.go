package service

import (
	"errors"
	"testing"
	"time"
)

func mkJob(id string, p Priority) *Job {
	return &Job{ID: id, resolvedSpec: resolvedSpec{prio: p}, state: StateQueued, submitted: time.Now()}
}

func mkCostJob(id string, p Priority, cost float64) *Job {
	j := mkJob(id, p)
	j.est.cost = cost
	return j
}

func TestQueuePriorityAndFIFO(t *testing.T) {
	q := newAdmission(Options{QueueCap: 10})
	for _, j := range []*Job{
		mkJob("n1", PriorityNormal),
		mkJob("l1", PriorityLow),
		mkJob("h1", PriorityHigh),
		mkJob("n2", PriorityNormal),
		mkJob("h2", PriorityHigh),
	} {
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"h1", "h2", "n1", "n2", "l1"}
	for _, id := range want {
		j, ok := q.pop()
		if !ok || j.ID != id {
			t.Fatalf("popped %v, want %s", j, id)
		}
	}
}

func TestQueueBackpressure(t *testing.T) {
	q := newAdmission(Options{QueueCap: 2})
	if err := q.push(mkJob("a", PriorityNormal)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(mkJob("b", PriorityHigh)); err != nil {
		t.Fatal(err)
	}
	if err := q.push(mkJob("c", PriorityHigh)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	q.pop()
	if err := q.push(mkJob("c", PriorityHigh)); err != nil {
		t.Fatalf("push after pop: %v", err)
	}
}

// The cost budget sheds expensive jobs while cheap ones keep flowing, and
// never wedges: an over-budget job is still admitted into an empty queue.
func TestQueueCostBudget(t *testing.T) {
	q := newAdmission(Options{QueueCap: 10, MaxQueuedSec: 1.0})
	if err := q.push(mkCostJob("big", PriorityNormal, 0.8)); err != nil {
		t.Fatalf("first big job refused: %v", err)
	}
	if err := q.push(mkCostJob("big2", PriorityNormal, 0.8)); !errors.Is(err, ErrCostBudget) {
		t.Fatalf("second big job: err = %v, want ErrCostBudget", err)
	}
	if err := q.push(mkCostJob("cheap", PriorityNormal, 0.1)); err != nil {
		t.Fatalf("cheap job refused while budget had room: %v", err)
	}
	if got := q.state().cost; got < 0.85 || got > 0.95 {
		t.Fatalf("CostSec = %g, want 0.9", got)
	}
	q.pop()
	q.pop()
	if q.state().cost != 0 {
		t.Fatalf("drained queue still charges %g", q.state().cost)
	}
	// A job costing more than the whole budget enters an empty queue.
	if err := q.push(mkCostJob("monster", PriorityNormal, 5)); err != nil {
		t.Fatalf("over-budget job refused by empty queue: %v", err)
	}
	// ... but holds the budget against everything else until popped.
	if err := q.push(mkCostJob("later", PriorityNormal, 0.01)); !errors.Is(err, ErrCostBudget) {
		t.Fatalf("err = %v, want ErrCostBudget behind a monster", err)
	}
}

// Aging bounds starvation: a low-priority job that has waited past the
// aging interval outranks a freshly-pushed high-priority job.
func TestQueueAgingPreventsStarvation(t *testing.T) {
	q := newAdmission(Options{QueueCap: 10, Aging: 10 * time.Millisecond})
	if err := q.push(mkJob("old-low", PriorityLow)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // ages past High and caps there
	if err := q.push(mkJob("fresh-high", PriorityHigh)); err != nil {
		t.Fatal(err)
	}
	j, ok := q.pop()
	if !ok || j.ID != "old-low" {
		t.Fatalf("popped %v, want the aged low-priority job", j)
	}
	j, ok = q.pop()
	if !ok || j.ID != "fresh-high" {
		t.Fatalf("popped %v, want fresh-high", j)
	}
}

// Without aging the same scenario starves: priority strictly dominates.
func TestQueueNoAgingKeepsStrictPriority(t *testing.T) {
	q := newAdmission(Options{QueueCap: 10})
	q.push(mkJob("old-low", PriorityLow))
	time.Sleep(20 * time.Millisecond)
	q.push(mkJob("fresh-high", PriorityHigh))
	if j, _ := q.pop(); j.ID != "fresh-high" {
		t.Fatalf("popped %s, want fresh-high (aging disabled)", j.ID)
	}
}

func TestQueueRemove(t *testing.T) {
	q := newAdmission(Options{QueueCap: 4})
	a := mkCostJob("a", PriorityNormal, 0.5)
	q.push(a)
	q.push(mkCostJob("b", PriorityNormal, 0.5))
	if !q.release(a) {
		t.Fatal("remove a failed")
	}
	if q.release(a) {
		t.Fatal("double remove succeeded")
	}
	if got := q.state().cost; got != 0.5 {
		t.Fatalf("CostSec after remove = %g, want 0.5", got)
	}
	j, ok := q.pop()
	if !ok || j.ID != "b" {
		t.Fatalf("popped %v, want b", j)
	}
	if q.state().queued != 0 {
		t.Fatalf("len = %d", q.state().queued)
	}
	if q.state().cost != 0 {
		t.Fatalf("CostSec = %g after draining", q.state().cost)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := newAdmission(Options{QueueCap: 4})
	q.push(mkJob("a", PriorityNormal))
	q.close()
	if err := q.push(mkJob("b", PriorityNormal)); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close: %v", err)
	}
	if j, ok := q.pop(); !ok || j.ID != "a" {
		t.Fatal("queued job not drained after close")
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on drained closed queue reported ok")
	}
}

func TestQueuePopBlocksUntilPush(t *testing.T) {
	q := newAdmission(Options{QueueCap: 1})
	got := make(chan *Job, 1)
	go func() {
		j, _ := q.pop()
		got <- j
	}()
	time.Sleep(10 * time.Millisecond)
	q.push(mkJob("x", PriorityLow))
	select {
	case j := <-got:
		if j.ID != "x" {
			t.Fatalf("popped %s", j.ID)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop did not wake")
	}
}
