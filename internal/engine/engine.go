// Package engine owns scheduling and memory for the whole compute plane.
//
// The iFDK hot path — filtering, AllGather, back-projection — used to carry
// its own worker pools and allocate fresh images, transpose copies and FFT
// scratch for every projection of every job. With many concurrent
// reconstructions per process (the service layer), that garbage-collector
// pressure, not FLOPs, becomes the binding constraint, mirroring the paper's
// observation that the stages must be engineered around memory traffic to be
// "instant". This package centralizes the two shared resources:
//
//   - Scheduling. ParallelRange runs loop bodies on one process-wide pool
//     of worker goroutines (one goroutine per CPU, started lazily). Callers
//     always participate in their own work, so nested parallel sections and
//     a saturated pool degrade to sequential execution instead of
//     deadlocking, and steady-state dispatch performs no heap allocations
//     (job descriptors are pooled).
//
//   - Memory. ImagePool, VolumePool and BufPool hand out reusable buffers
//     keyed by shape. See pool.go for the acquire/release contract that the
//     pipeline stages follow.
//
// Determinism. The scheduler assigns disjoint index chunks using the same
// split formula for a given (n, workers) pair regardless of which worker
// executes which chunk, so any computation that was deterministic under a
// private goroutine loop (back-projection's per-voxel accumulation order)
// stays bit-identical under the shared pool.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	startOnce sync.Once
	taskq     chan *job
	poolSize  int
)

// start launches the process-wide worker pool: one goroutine per logical
// CPU, all feeding from one queue. Workers never block on anything but the
// queue itself, so the pool cannot deadlock.
func start() {
	poolSize = runtime.GOMAXPROCS(0)
	taskq = make(chan *job, 16*poolSize)
	for w := 0; w < poolSize; w++ {
		go func() {
			for j := range taskq {
				j.run()
				j.release()
			}
		}()
	}
}

// Workers returns the size of the shared pool (GOMAXPROCS at first use).
func Workers() int {
	startOnce.Do(start)
	return poolSize
}

// job is one parallel section: [0, n) split into chunks claimed by an
// atomic cursor. Jobs are pooled; refs counts the goroutines (caller +
// enqueued helpers) that may still touch the descriptor.
type job struct {
	body   func(lo, hi int)
	n      int
	chunks int
	next   atomic.Int64
	refs   atomic.Int64
	wg     sync.WaitGroup
}

var jobPool = sync.Pool{New: func() any { return new(job) }}

// run claims and executes chunks until none remain. Chunk c covers
// [c·n/chunks, (c+1)·n/chunks) — the same split parallelRange used when
// every stage rolled its own pool, preserving accumulation determinism.
func (j *job) run() {
	for {
		c := int(j.next.Add(1)) - 1
		if c >= j.chunks {
			return
		}
		lo := c * j.n / j.chunks
		hi := (c + 1) * j.n / j.chunks
		if hi > lo {
			j.body(lo, hi)
		}
		j.wg.Done()
	}
}

// release drops one reference; the last reference returns the descriptor to
// the pool. A helper may dequeue a job after all its chunks are done — it
// then runs zero chunks and merely releases, which is why reuse must wait
// for refs to drain.
func (j *job) release() {
	if j.refs.Add(-1) == 0 {
		j.body = nil
		jobPool.Put(j)
	}
}

// normalize resolves a caller worker count: ≤ 0 means the shared pool size.
func normalize(workers int) int {
	if workers <= 0 {
		return Workers()
	}
	return workers
}

// ParallelRange splits [0, n) into one contiguous chunk per worker and runs
// body(lo, hi) concurrently on the shared pool (workers ≤ 0 means the pool
// size): the caller plus up to workers-1 pool helpers. It replaces the
// per-package goroutine loops the compute stages used to carry. The caller
// always works too, and the call returns after all chunks complete.
func ParallelRange(n, workers int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := min(normalize(workers), n)
	if chunks <= 1 {
		body(0, n)
		return
	}
	startOnce.Do(start)
	j := jobPool.Get().(*job)
	j.body, j.n, j.chunks = body, n, chunks
	j.next.Store(0)
	j.wg.Add(chunks)
	helpers := chunks - 1
	j.refs.Store(int64(helpers) + 1)
	enq := 0
	for ; enq < helpers; enq++ {
		select {
		case taskq <- j:
		default:
			// Queue saturated: the caller (and any helpers that did
			// enqueue) absorb the remaining chunks.
			j.refs.Add(int64(enq - helpers))
			goto work
		}
	}
work:
	j.run()
	j.wg.Wait()
	j.release()
}
