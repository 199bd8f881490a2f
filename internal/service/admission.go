package service

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"ifdk/internal/perfmodel"
	"ifdk/internal/service/progressive"
)

// ErrQueueFull is returned by Submit when the queue holds its maximum number
// of jobs — the backpressure signal the HTTP layer translates to 503.
var ErrQueueFull = errors.New("service: job queue full")

// ErrCostBudget is returned by Submit when admitting the job would push the
// estimated seconds of queued work past the configured budget. Unlike
// ErrQueueFull it is per-job: a cheap preview can still be admitted after a
// large job was refused.
var ErrCostBudget = errors.New("service: queued-work cost budget exhausted")

// ErrWorkingSet is returned by Submit when admitting the job would push the
// estimated in-flight working set past the configured byte budget.
var ErrWorkingSet = errors.New("service: in-flight working-set budget exhausted")

// ErrQuota is returned by Submit when the client's token bucket is empty —
// the HTTP layer translates it to 429.
var ErrQuota = errors.New("service: client quota exceeded")

// ErrClosed is returned when the manager is shutting down.
var ErrClosed = errors.New("service: manager closed")

// admission decides which jobs enter the service and in which order they
// leave for a worker. It holds every charge an admitted job takes, the
// per-client token buckets, the cost model's calibration (scale) and the
// ring of recent queue waits, all under one lock that takes no other.
//
// Budgets: push never blocks. It refuses a job when the estimated working
// set of the charged (queued + running) jobs would exceed maxBytes
// (ErrWorkingSet), when the queue holds capacity jobs (ErrQueueFull), or
// when the queued jobs' cost estimates would exceed maxCost seconds
// (ErrCostBudget). The cost budget keeps one 256³ monster from
// monopolizing admission while 16³ previews shed 503s: a huge job consumes
// most of the budget by itself, so a second huge job is refused while cheap
// jobs still fit in the remainder. A job is always admitted when nothing
// holds the budget it would overrun, so the budgets bound backlog, not
// single jobs.
//
// Ordering: pop drains by effective priority, oldest job first within a
// class. A job's effective priority starts at its submitted class and rises
// one class for every aging interval it has waited, capped at the highest
// class; ties break oldest-first. This bounds starvation: a saturated
// high-priority stream can delay a low-priority job by at most
// (numPriorities-1)·aging before the job competes with — and, being older,
// beats — every fresh high-priority submission.
type admission struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	closed   bool

	buckets  [numPriorities][]queued
	n        int
	capacity int
	aging    time.Duration // wait per one-class priority boost; <= 0 disables

	maxCost  float64 // queued-seconds budget; <= 0 means unlimited
	cost     float64 // sum of queued jobs' est.cost
	maxBytes int64   // in-flight working-set budget; <= 0 means unlimited
	bytes    int64   // sum of charged jobs' est.bytes
	charged  int     // jobs holding a charge: pushed and not yet released

	rps, burst float64 // token refill per second (<= 0: no quotas) and bucket depth
	quota      map[string]*tokenBucket

	scale float64 // EWMA of observed wall seconds per model second, from 1

	waits      [numPriorities][]float64 // ring of recent queue waits, seconds
	waitNext   [numPriorities]int
	waitCounts [numPriorities]int64
}

type queued struct {
	j        *Job
	enqueued time.Time
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// waitSamples is the capacity of each class's wait ring.
const waitSamples = 512

// admissionState is one consistent reading of admission's gauges.
type admissionState struct {
	queued, capacity     int
	cost, maxCost, scale float64 // maxCost is 0 when unlimited
	bytes, maxBytes      int64
}

// newAdmission builds admission from opt's QueueCap (min 1), MaxQueuedSec,
// MaxInflightBytes, Aging and QuotaRPS, each read as given: a budget, an
// aging interval or a rate that is not positive is off.
func newAdmission(opt Options) *admission {
	a := &admission{capacity: max(1, opt.QueueCap), aging: opt.Aging, maxCost: opt.MaxQueuedSec,
		maxBytes: opt.MaxInflightBytes, rps: opt.QuotaRPS, burst: math.Max(1, 2*opt.QuotaRPS),
		quota: make(map[string]*tokenBucket), scale: 1}
	a.notEmpty = sync.NewCond(&a.mu)
	return a
}

// state reads the gauges.
func (a *admission) state() admissionState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return admissionState{queued: a.n, capacity: a.capacity, cost: a.cost, maxCost: max(0, a.maxCost),
		scale: a.scale, bytes: a.bytes, maxBytes: a.maxBytes}
}

// push admits j, charging its queued cost and its working-set bytes in one
// step, or refuses it with ErrClosed, ErrWorkingSet, ErrQueueFull or
// ErrCostBudget, checked in that order. A recovered job skips the budgets:
// it was admitted before the restart and must not be lost to a transiently
// smaller or busier queue.
func (a *admission) push(j *Job) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch {
	case a.closed:
		return ErrClosed
	case j.recovered:
	case a.maxBytes > 0 && a.charged > 0 && a.bytes+j.est.bytes > a.maxBytes:
		return fmt.Errorf("job needs ~%d MiB against %d MiB in flight: %w", j.est.bytes>>20, a.maxBytes>>20, ErrWorkingSet)
	case a.n >= a.capacity:
		return ErrQueueFull
	case a.maxCost > 0 && a.n > 0 && a.cost+j.est.cost > a.maxCost:
		return ErrCostBudget
	}
	a.buckets[j.Priority] = append(a.buckets[j.Priority], queued{j: j, enqueued: time.Now()})
	a.n++
	a.cost += j.est.cost
	a.bytes += j.est.bytes
	a.charged++
	a.notEmpty.Signal()
	return nil
}

// effective returns the aged priority class of a job that has waited for
// the given duration since enqueue.
func (a *admission) effective(base Priority, waited time.Duration) int {
	p := int(base)
	if a.aging > 0 && waited > 0 {
		boost := int(waited / a.aging)
		if boost > int(numPriorities)-1-p {
			return int(numPriorities) - 1
		}
		p += boost
	}
	return p
}

// pop blocks until a job is queued and takes it off the queue, giving back
// its queued cost; its bytes stay charged until release. After close the
// remaining jobs are drained, then pop reports ok == false.
func (a *admission) pop() (*Job, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.n == 0 && !a.closed {
		a.notEmpty.Wait()
	}
	if a.n == 0 {
		return nil, false
	}
	// Pick the bucket whose head has the highest effective priority; the
	// head is each bucket's oldest entry, hence also its most aged. Ties
	// go to the oldest head so an aged job beats fresh same-class ones.
	now := time.Now()
	best, bestEff := -1, -1
	var bestEnq time.Time
	for p := 0; p < int(numPriorities); p++ {
		if len(a.buckets[p]) == 0 {
			continue
		}
		head := a.buckets[p][0]
		eff := a.effective(Priority(p), now.Sub(head.enqueued))
		if eff > bestEff || (eff == bestEff && head.enqueued.Before(bestEnq)) {
			best, bestEff, bestEnq = p, eff, head.enqueued
		}
	}
	j := a.buckets[best][0].j
	a.buckets[best][0] = queued{}
	a.buckets[best] = a.buckets[best][1:]
	a.dequeuedLocked(j)
	return j, true
}

// dequeuedLocked gives back the queued cost of a job that left the queue.
func (a *admission) dequeuedLocked(j *Job) {
	a.n--
	a.cost -= j.est.cost
	if a.n == 0 {
		a.cost = 0 // clamp float drift so an empty queue charges nothing
	}
}

// release gives back everything a pushed job holds: its place in the queue
// with its queued cost, when no worker popped it first, and its bytes. It
// reports whether the job was still queued. Every terminal transition of an
// admitted job calls it once.
func (a *admission) release(j *Job) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.bytes -= j.est.bytes
	a.charged--
	b := a.buckets[j.Priority]
	for i := range b {
		if b[i].j == j {
			a.buckets[j.Priority] = slices.Delete(b, i, i+1)
			a.dequeuedLocked(j)
			return true
		}
	}
	return false
}

// close stops admission and wakes blocked pops; queued jobs can still be
// drained (graceful shutdown) — idempotent.
func (a *admission) close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closed = true
	a.notEmpty.Broadcast()
}

// takeToken charges one submission against the client's token bucket and
// reports whether it fit. Buckets refill at rps tokens/s up to burst, which
// is max(1, 2·rps); a client unseen for long enough finds a full bucket.
func (a *admission) takeToken(client string) bool {
	if a.rps <= 0 {
		return true
	}
	now := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	b, ok := a.quota[client]
	if !ok {
		// Bound the table: drop buckets that have refilled to the brim
		// (they are indistinguishable from fresh ones).
		if len(a.quota) >= 4096 {
			for id, old := range a.quota {
				if now.Sub(old.last).Seconds()*a.rps >= a.burst {
					delete(a.quota, id)
				}
			}
		}
		b = &tokenBucket{tokens: a.burst, last: now}
		a.quota[client] = b
	}
	b.tokens = math.Min(a.burst, b.tokens+now.Sub(b.last).Seconds()*a.rps)
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// price is a job's admission charge, frozen at submit: the model's runtime
// in model seconds, that runtime calibrated to this host (what the queued
// cost budget charges) and the working set (what the byte budget charges).
type price struct {
	modelSec, cost float64
	bytes          int64
}

// estimate prices a resolved spec, per quality tier: full jobs cost the
// Sec. 4.2 model estimate; preview jobs cost only their decimated problem
// (the cheap admission class — a preview never charges the queue or byte
// budget for work it will not do); progressive jobs cost both tiers.
func (a *admission) estimate(rs resolvedSpec) (price, error) {
	var est perfmodel.Cost
	var err error
	switch rs.qual {
	case progressive.Preview:
		est, err = perfmodel.EstimatePreview(rs.cfg, rs.plan.Coarse, rs.plan.Factor)
	case progressive.Progressive:
		est, err = perfmodel.EstimateProgressive(rs.cfg, rs.plan.Coarse, rs.plan.Factor)
	default:
		est, err = perfmodel.Estimate(rs.cfg)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return price{modelSec: est.RunSec, cost: est.RunSec * a.scale, bytes: est.WorkingSetBytes}, err
}

// observeRuntime folds one completed run's observed wall-clock/model ratio
// into the calibration EWMA, so cost estimates converge to this machine's
// actual throughput instead of the paper's testbed constants.
func (a *admission) observeRuntime(modelSec, wallSec float64) {
	if modelSec <= 0 || wallSec <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.scale = 0.75*a.scale + 0.25*wallSec/modelSec
}

// recordWait adds one queue-wait observation to its class's ring, behind
// the wait percentiles of /v1/metrics.
func (a *admission) recordWait(p Priority, d time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.waits[p]) < waitSamples {
		a.waits[p] = append(a.waits[p], d.Seconds())
	} else {
		a.waits[p][a.waitNext[p]] = d.Seconds()
		a.waitNext[p] = (a.waitNext[p] + 1) % waitSamples
	}
	a.waitCounts[p]++
}

// waitStats snapshots the per-class wait percentiles.
func (a *admission) waitStats() map[string]WaitStats {
	out := make(map[string]WaitStats, numPriorities)
	a.mu.Lock()
	defer a.mu.Unlock()
	for p := Priority(0); p < numPriorities; p++ {
		if a.waitCounts[p] == 0 {
			continue
		}
		s := append([]float64(nil), a.waits[p]...)
		sort.Float64s(s)
		pct := func(q float64) float64 { return s[int(q*float64(len(s)-1))] }
		out[p.String()] = WaitStats{Count: a.waitCounts[p], P50: pct(0.50), P90: pct(0.90), P99: pct(0.99)}
	}
	return out
}
