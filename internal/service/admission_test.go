package service

import (
	"errors"
	"testing"
	"time"

	"ifdk/internal/hpc/pfs"
	"ifdk/internal/perfmodel"
)

// estOf evaluates the submit-time cost model exactly as Submit does.
func estOf(t *testing.T, s Spec) perfmodel.Cost {
	t.Helper()
	rs, err := resolveSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	est, err := perfmodel.Estimate(rs.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func waitRunning(t *testing.T, m *Manager, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if v.State == StateRunning {
			return
		}
		if v.State.Terminal() {
			t.Fatalf("job %s finished before it could block: %+v", id, v)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

// A saturated high-priority stream must not starve a queued low-priority
// job: priority aging promotes it past fresh high-priority work within the
// aging bound. Without aging this test times out (the low job never pops
// while the flood continues).
func TestNoStarvationUnderHighPriorityFlood(t *testing.T) {
	m := NewManager(Options{
		Workers:  1,
		QueueCap: 64,
		Aging:    25 * time.Millisecond,
		PFS:      pfsThrottled(), // stretch each run so the queue stays contended
	})
	blocker := testSpec()
	blocker.NP = 36
	if _, err := m.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	lowSpec := testSpec()
	lowSpec.Priority = "low"
	low, err := m.Submit(lowSpec)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	floodDone := make(chan struct{})
	go func() {
		defer close(floodDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s := testSpec()
			s.Priority = "high"
			s.NP = 40 + 4*(i%500) // distinct specs: no cache hits
			_, _ = m.Submit(s)    // queue-full is fine; keep the pressure on
			time.Sleep(5 * time.Millisecond)
		}
	}()
	v := waitState(t, m, low.ID, 30*time.Second)
	close(stop)
	<-floodDone
	if v.State != StateDone {
		t.Fatalf("low-priority job ended %s: %s", v.State, v.Error)
	}
	if mt := m.Metrics(); mt.WaitSec["low"].Count == 0 {
		t.Error("no low-priority wait sample recorded")
	}
	// Drain: cancel whatever the flood left behind, then shut down.
	for _, jv := range m.List() {
		if !jv.State.Terminal() {
			_ = m.Cancel(jv.ID)
		}
	}
	shutdown(t, m)
}

// The queued-work cost budget sheds a second expensive job while cheap
// previews keep flowing — and admission counters say why.
func TestCostBudgetShedsBigAdmitsSmall(t *testing.T) {
	small := testSpec() // 16³
	big := testSpec()
	big.NX = 32 // 32³: both runtime and working set are ~an order larger
	costSmall := estOf(t, small).RunSec
	costBig := estOf(t, big).RunSec
	if costSmall > 0.4*costBig {
		t.Fatalf("model costs not separated enough: small %g vs big %g", costSmall, costBig)
	}
	m := NewManager(Options{
		Workers:      1,
		QueueCap:     16,
		MaxQueuedSec: 1.5 * costBig, // one big job fits; two do not; big+small does
		PFS:          pfs.Config{ReadBW: 2e5, Throttle: true},
	})
	blocker := testSpec()
	blocker.NP = 36
	bv, err := m.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, bv.ID) // occupy the only worker; queue is now empty
	bigV, err := m.Submit(big)
	if err != nil {
		t.Fatalf("first big job refused: %v", err)
	}
	if bigV.Cost <= 0 || bigV.EstRunSec <= 0 {
		t.Errorf("admitted job carries no cost estimate: %+v", bigV)
	}
	big2 := big
	big2.NP = big.NX*2 + 4 // distinct spec, same scale
	if _, err := m.Submit(big2); !errors.Is(err, ErrCostBudget) {
		t.Fatalf("second big job: err = %v, want ErrCostBudget", err)
	}
	if _, err := m.Submit(small); err != nil {
		t.Fatalf("cheap job refused while budget had room: %v", err)
	}
	mt := m.Metrics()
	if mt.Admission.RejectedCost != 1 {
		t.Errorf("rejected_cost = %d, want 1", mt.Admission.RejectedCost)
	}
	if mt.QueueCostSec <= 0 {
		t.Errorf("queue_cost_sec = %g, want > 0", mt.QueueCostSec)
	}
	for _, jv := range m.List() {
		if !jv.State.Terminal() {
			_ = m.Cancel(jv.ID)
		}
	}
	shutdown(t, m)
}

// The in-flight working-set byte budget refuses a job whose buffers would
// not fit next to the running ones, while smaller jobs still pass.
func TestWorkingSetBudget(t *testing.T) {
	small := testSpec()
	big := testSpec()
	big.NX = 32
	bytesSmall := estOf(t, small).WorkingSetBytes
	bytesBig := estOf(t, big).WorkingSetBytes
	if bytesBig < 2*bytesSmall {
		t.Fatalf("working sets not separated: small %d vs big %d", bytesSmall, bytesBig)
	}
	m := NewManager(Options{
		Workers:          1,
		QueueCap:         16,
		MaxInflightBytes: 3 * bytesSmall,
		PFS:              pfs.Config{ReadBW: 2e5, Throttle: true},
	})
	blocker := testSpec()
	blocker.NP = 36
	bv, err := m.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, bv.ID) // running jobs stay charged against the budget
	if _, err := m.Submit(big); !errors.Is(err, ErrWorkingSet) {
		t.Fatalf("big job: err = %v, want ErrWorkingSet", err)
	}
	if _, err := m.Submit(small); err != nil {
		t.Fatalf("small job refused with budget room: %v", err)
	}
	if mt := m.Metrics(); mt.Admission.RejectedBytes != 1 || mt.InflightBytes <= 0 {
		t.Errorf("admission = %+v, inflight = %d", mt.Admission, mt.InflightBytes)
	}
	for _, jv := range m.List() {
		if !jv.State.Terminal() {
			_ = m.Cancel(jv.ID)
		}
	}
	shutdown(t, m)
}

// Cache hits are reported separately from completed reconstructions, so
// jobs_per_sec reflects actual pipeline throughput.
func TestCacheHitNotCountedAsCompleted(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	v, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, 30*time.Second)
	if _, err := m.Submit(testSpec()); err != nil { // identical: cache hit
		t.Fatal(err)
	}
	mt := m.Metrics()
	if mt.Completed != 1 {
		t.Errorf("completed = %d, want 1 (cache hit must not count)", mt.Completed)
	}
	if mt.CacheHits != 1 {
		t.Errorf("cache_hits = %d, want 1", mt.CacheHits)
	}
	shutdown(t, m)
}

// Cancelling a job mid-staging must stop synthesis and PFS writes, remove
// the partial dataset, and release the dataset's lock so a resubmission
// stages from scratch.
func TestCancelDuringStaging(t *testing.T) {
	spec := testSpec()
	spec.NP = 512 // long stage: 512 projections written through a slow PFS
	m := NewManager(Options{
		Workers: 1,
		PFS:     pfs.Config{WriteBW: 2e6, ReadBW: 2e6, Throttle: true},
	})
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m, v.ID)
	time.Sleep(50 * time.Millisecond) // let staging get partway through
	if err := m.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	final := waitState(t, m, v.ID, 10*time.Second)
	if final.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	// The whole dataset would take ~1s to write; a responsive cancel
	// settles in a fraction of that.
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancel during staging took %v", d)
	}
	// No partial dataset may survive (a later job would read a half scan).
	if objs := m.Store().List("ds/"); len(objs) != 0 {
		t.Errorf("%d partial dataset objects survived the cancel", len(objs))
	}
	// The dataset's lock is free again and its scan not marked staged: a
	// resubmission is admitted and re-stages rather than waiting on the
	// cancelled stager forever.
	if n := stagedOrLocked(m); n != 0 {
		t.Errorf("%d dataset entries still staged or locked after cancel", n)
	}
	v2, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit after cancelled staging: %v", err)
	}
	waitRunning(t, m, v2.ID) // the resubmission is staging again
	_ = m.Cancel(v2.ID)      // keep the test fast; teardown is covered above
	shutdown(t, m)
}

// Cancel on a terminal job reports the typed sentinel the DELETE handler
// keys its race-free fallthrough on.
func TestCancelTerminalReportsSentinel(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	v, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID, 30*time.Second)
	if err := m.Cancel(v.ID); !errors.Is(err, ErrAlreadyTerminal) {
		t.Fatalf("err = %v, want ErrAlreadyTerminal", err)
	}
	if err := m.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	shutdown(t, m)
}

// Every path a job takes through the lifecycle returns every charge that
// admission took for it, exactly once. Each path is driven through the
// lifecycle table as apply drives it, for admission's part alone: admit and
// recover push, start pops, and a row that releases releases. Refused
// pushes and cache hits take no charge. After the last job, nothing is
// queued or charged.
func TestAdmissionReturnsEveryCharge(t *testing.T) {
	const mib = 1 << 20
	a := newAdmission(Options{QueueCap: 3, MaxQueuedSec: 1, MaxInflightBytes: 8 * mib})
	job := func(id string, cost float64, bytes int64) *Job {
		j := mkJob(id, PriorityNormal)
		j.est = price{cost: cost, bytes: bytes}
		return j
	}
	drive := func(j *Job, evs ...event) {
		t.Helper()
		st := stateNew
		for _, ev := range evs {
			to, fx, err := transition(st, ev)
			if err != nil {
				t.Fatal(err)
			}
			switch ev {
			case evAdmit, evRecover:
				if err := a.push(j); err != nil {
					t.Fatalf("%s: %s refused: %v", j.ID, ev, err)
				}
			case evStart:
				if got, ok := a.pop(); !ok || got != j {
					t.Fatalf("%s: start popped another job or none (ok %v)", j.ID, ok)
				}
			}
			if fx.release {
				a.release(j)
			}
			st = to
		}
	}
	empty := func(after string) {
		t.Helper()
		if s := a.state(); s.bytes != 0 || a.charged != 0 || s.cost != 0 || s.queued != 0 {
			t.Fatalf("after %s: %d B in flight, %d jobs charged, %g s and %d jobs queued; want all 0",
				after, s.bytes, a.charged, s.cost, s.queued)
		}
	}

	drive(job("succeed", 0.5, mib), evAdmit, evStart, evSucceed)
	drive(job("fail", 0.5, mib), evAdmit, evStart, evFail)
	drive(job("cancel-queued", 0.5, mib), evAdmit, evCancel)
	drive(job("cancel-running", 0.5, mib), evAdmit, evStart, evCancel)
	drive(job("cache-hit", 0.5, mib), evCacheHit)
	replayed := job("replayed", 0.5, mib)
	replayed.recovered = true
	drive(replayed, evRecover, evStart, evSucceed)
	empty("the single-job paths")

	// Refusals take nothing: full, over the cost budget, over the byte budget.
	queued := []*Job{job("q1", 0.8, 2*mib), job("q2", 0.1, 2*mib), job("q3", 0.05, 2*mib)}
	for _, j := range queued[:2] {
		drive(j, evAdmit)
	}
	before, charged := a.state(), a.charged
	for _, c := range []struct {
		j    *Job
		want error
	}{
		{job("over-cost", 0.5, mib), ErrCostBudget},
		{job("over-bytes", 0.01, 5*mib), ErrWorkingSet},
	} {
		if err := a.push(c.j); !errors.Is(err, c.want) {
			t.Fatalf("%s: err = %v, want %v", c.j.ID, err, c.want)
		}
	}
	drive(queued[2], evAdmit)
	if err := a.push(job("over-capacity", 0.01, mib)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity: err = %v, want ErrQueueFull", err)
	}
	if s := a.state(); a.charged != charged+1 || s.bytes != before.bytes+2*mib {
		t.Fatalf("refused pushes took a charge: %d jobs, %d B charged; %d jobs, %d B before one more admit",
			a.charged, s.bytes, charged, before.bytes)
	}
	// A replayed job passes every budget and settles like any other.
	replayed = job("replayed-full", 5, 5*mib)
	replayed.recovered = true
	if err := a.push(replayed); err != nil {
		t.Fatalf("replayed job refused by a full queue: %v", err)
	}
	for _, j := range queued {
		if !a.release(j) { // cancelled while queued
			t.Fatalf("%s was not queued", j.ID)
		}
	}
	if got, ok := a.pop(); !ok || got != replayed {
		t.Fatalf("popped another job or none (ok %v), want the replayed job", ok)
	}
	a.release(replayed)
	empty("the refusals and the replayed job")
}
