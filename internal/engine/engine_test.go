package engine

import (
	"sync/atomic"
	"testing"

	"ifdk/internal/race"
)

// Every index must be visited exactly once, for any n/workers combination
// including degenerate ones.
func TestParallelRangeCoversExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, workers := range []int{0, 1, 2, 3, 16, 2000} {
			counts := make([]int32, n)
			ParallelRange(n, workers, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("n=%d w=%d: bad chunk [%d,%d)", n, workers, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, workers, i, c)
				}
			}
		}
	}
}

// The chunk split must be the stable formula c·n/chunks so parallel
// accumulation stays deterministic across runs and pool states.
func TestParallelRangeChunkBoundariesStable(t *testing.T) {
	const n, workers = 103, 7
	collect := func() map[int]int {
		m := make(map[int]int)
		done := make(chan [2]int, workers)
		ParallelRange(n, workers, func(lo, hi int) { done <- [2]int{lo, hi} })
		close(done)
		for c := range done {
			m[c[0]] = c[1]
		}
		return m
	}
	a, b := collect(), collect()
	if len(a) != workers || len(b) != workers {
		t.Fatalf("chunk counts %d/%d, want %d", len(a), len(b), workers)
	}
	for lo, hi := range a {
		if b[lo] != hi {
			t.Errorf("chunk [%d,%d) not reproduced (got hi=%d)", lo, hi, b[lo])
		}
	}
}

// Nested parallel sections must complete (callers participate in their own
// work, so a saturated pool degrades to sequential execution, never
// deadlock).
func TestNestedParallelSections(t *testing.T) {
	var total atomic.Int64
	ParallelRange(8, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ParallelRange(50, 4, func(lo, hi int) {
				total.Add(int64(hi - lo))
			})
		}
	})
	if got := total.Load(); got != 8*50 {
		t.Fatalf("nested total = %d, want %d", got, 8*50)
	}
}

// Concurrent dispatches from many goroutines must not interfere (the whole
// point of a shared pool: many jobs, one set of workers).
func TestConcurrentDispatch(t *testing.T) {
	const gor = 8
	done := make(chan int64, gor)
	for g := 0; g < gor; g++ {
		go func() {
			var sum atomic.Int64
			ParallelRange(500, 4, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					sum.Add(int64(i))
				}
			})
			done <- sum.Load()
		}()
	}
	want := int64(500 * 499 / 2)
	for g := 0; g < gor; g++ {
		if got := <-done; got != want {
			t.Fatalf("dispatch %d: sum = %d, want %d", g, got, want)
		}
	}
}

func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers() = %d", Workers())
	}
}

// Steady-state dispatch must not allocate per call (job descriptors are
// pooled); the guarantee the zero-allocation pipeline builds on.
func TestParallelRangeSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates")
	}
	body := func(lo, hi int) {}
	for i := 0; i < 100; i++ { // warm the job pool
		ParallelRange(64, 4, body)
	}
	avg := testing.AllocsPerRun(200, func() { ParallelRange(64, 4, body) })
	// Allow a fraction for rare sync.Pool misses under GC pressure.
	if avg > 1 {
		t.Errorf("ParallelRange allocates %.2f objects/call in steady state", avg)
	}
}
