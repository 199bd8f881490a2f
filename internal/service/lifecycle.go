package service

import (
	"cmp"
	"fmt"
	"time"
)

// The job lifecycle. A job's state changes in exactly one place, apply,
// which looks the move up in the transition table below and then runs the
// effects that row lists, always in the same order. The legal moves:
//
//	new ─admit──▶ queued ─start──▶ running ─succeed─▶ done
//	new ─recover─▶ queued          running ─fail────▶ failed
//	               queued ─cancel─▶ cancelled ◀─cancel─ running
//	new ─cache-hit─▶ done
//	new ─succeed / fail / cancel─▶ done / failed / cancelled  (journal replay)
//
// Every other (state, event) pair is refused and changes nothing.

// stateNew is the zero State of a record no event has moved yet. No reader
// sees it: a record joins the job table only after its first transition.
const stateNew State = ""

// event is one input to the lifecycle.
type event uint8

const (
	evAdmit    event = iota // Submit queues a new job
	evCacheHit              // Submit serves a new job from the result cache
	evRecover               // journal replay requeues a job that was queued or running at the crash
	evStart                 // a worker picks the job up
	evSucceed               // the run produced a result (from new: a journaled done job replayed)
	evFail                  // the run failed (from new: replayed)
	evCancel                // a queued job is withdrawn, or the run was cancelled (from new: replayed)
	numEvents
)

var eventNames = [numEvents]string{"admit", "cache-hit", "recover", "start", "succeed", "fail", "cancel"}

func (e event) String() string { return eventNames[e] }

// replayEvent is the event that restores a journaled terminal state.
var replayEvent = map[State]event{StateDone: evSucceed, StateFailed: evFail, StateCancelled: evCancel}

// counter names the lifecycle metric a transition bumps.
type counter uint8

const (
	countNone      counter = iota
	countCompleted         // ifdk_jobs_completed_total
	countFailed            // ifdk_jobs_failed_total
	countCancelled         // ifdk_jobs_cancelled_total
	countCacheHit          // ifdk_jobs_cache_hits_total
	countRequeued          // ifdk_journal_recovered_total{outcome="requeued"}
	countRestored          // ifdk_journal_recovered_total{outcome="terminal"}
)

// effects is what a transition does besides flipping the state, as data.
// cachePut runs before the flip and journal with it, under the job's lock;
// the rest run after it, in field order.
type effects struct {
	cachePut  bool      // store the run's result, where readers of the done job and resubmissions find it
	enter     bool      // join the job table, pruning the oldest terminal records past MaxJobs
	count     counter   // lifecycle metric bumped
	wait      bool      // record the queue wait
	opened    bool      // publish EventQueued, which opens every job's stream
	trace     bool      // announce that the job's trace is final
	bus       EventType // lifecycle event published after the trace ("" = none)
	busErr    string    // its Error when the job records none
	release   bool      // admission.release: the charge, held exactly while queued or running
	journal   []string  // records appended, in order
	log       string    // lifecycle log line ("" = none), at error level when the job records an error
	calibrate bool      // fold the run's stage clock into the stage histograms and the cost model
}

type edge struct {
	from State
	ev   event
}

// lifecycle is the transition table. Admission past the opening event —
// admission.push (the charge), the table and the submit record — stays in
// Submit, because push can still refuse the job. Recovered jobs publish no
// trace and journal nothing; cache hits hold no charge.
var lifecycle = map[edge]struct {
	to State
	fx effects
}{
	{stateNew, evAdmit}: {StateQueued, effects{opened: true}},
	{stateNew, evCacheHit}: {StateDone, effects{enter: true, count: countCacheHit, opened: true, trace: true,
		bus: EventDone, journal: []string{recSubmit, recTerminal}, log: "job served from cache"}},
	{stateNew, evRecover}: {StateQueued, effects{enter: true, count: countRequeued, opened: true,
		log: "job recovered from journal"}},
	{stateNew, evSucceed}:  {StateDone, effects{enter: true, count: countRestored, opened: true, bus: EventDone}},
	{stateNew, evFail}:     {StateFailed, effects{enter: true, count: countRestored, opened: true, bus: EventFailed}},
	{stateNew, evCancel}:   {StateCancelled, effects{enter: true, count: countRestored, opened: true, bus: EventCancelled}},
	{StateQueued, evStart}: {StateRunning, effects{wait: true, bus: EventStarted, journal: []string{recStart}, log: "job started"}},
	{StateQueued, evCancel}: {StateCancelled, effects{count: countCancelled, trace: true, bus: EventCancelled,
		busErr: "cancelled while queued", release: true, journal: []string{recTerminal}, log: "job cancelled while queued"}},
	{StateRunning, evSucceed}: {StateDone, effects{cachePut: true, count: countCompleted, trace: true, bus: EventDone,
		release: true, journal: []string{recTerminal}, log: "job finished", calibrate: true}},
	{StateRunning, evFail}: {StateFailed, effects{count: countFailed, trace: true, bus: EventFailed,
		release: true, journal: []string{recTerminal}, log: "job settled with error"}},
	{StateRunning, evCancel}: {StateCancelled, effects{count: countCancelled, trace: true, bus: EventCancelled,
		release: true, journal: []string{recTerminal}, log: "job settled with error"}},
}

// transition looks one move up in the lifecycle table.
func transition(from State, ev event) (State, effects, error) {
	row, ok := lifecycle[edge{from, ev}]
	if !ok {
		return from, effects{}, fmt.Errorf("service: no %s transition from state %q", ev, from)
	}
	return row.to, row.fx, nil
}

// apply moves j from `from` on ev; it holds the only write to Job.state. It
// is a compare-and-swap: when j has meanwhile left from — a worker started
// the job a Cancel found queued — nothing happens and apply says so. res is
// the result the event brings (a run's or the cache's entry) and set the
// event's own field writes; both land under j.mu together with the flip,
// and the row's journal records are appended before j.mu is released. The
// row's other effects then run with no lock held. Callers hold none either,
// except Submit around admit, whose one effect takes no manager lock.
func (m *Manager) apply(j *Job, from State, ev event, res *Entry, set func()) error {
	to, fx, err := transition(from, ev)
	if err != nil {
		return err
	}
	if fx.cachePut {
		m.cache.Put(j.cacheKey, res)
	}
	now := time.Now()
	j.mu.Lock()
	if j.state != from {
		st := j.state
		j.mu.Unlock()
		return fmt.Errorf("service: job %s is %s, not %s", j.ID, st, from)
	}
	if set != nil {
		set()
	}
	if res != nil {
		j.times, j.relRMSE, j.verified = res.Times, res.RelRMSE, res.Verified
	}
	switch {
	case to == StateRunning:
		j.started = now
	case to.Terminal():
		// A settled record keeps its keys; its bytes are in the cache.
		j.cancel, j.out, j.have, j.preview = nil, nil, nil, nil
		if j.finished.IsZero() {
			j.finished = now
		}
	}
	j.state = to
	// The row's records are durable before any reader can see the new
	// state: a crash after a client read it replays it, and a transition
	// that lost the compare-and-swap above journals nothing.
	for _, t := range fx.journal {
		_ = m.jAppend(j.recordLocked(t))
	}
	errStr, waited, ran := j.err, j.started.Sub(j.submitted), j.finished.Sub(j.started)
	j.mu.Unlock()

	var pruned []*Job
	if fx.enter {
		m.mu.Lock()
		pruned = m.enterLocked(j)
		m.mu.Unlock()
	}
	m.met.count(fx.count)
	if fx.wait {
		m.met.queueWait.With(j.prio.String()).Observe(waited.Seconds())
		m.admission.recordWait(j.prio, waited)
	}
	if fx.opened {
		m.events.Publish(j.ID, Event{Type: EventQueued, State: StateQueued})
	}
	if fx.trace {
		m.publishTrace(j)
	}
	if fx.bus != "" {
		m.events.Publish(j.ID, Event{Type: fx.bus, State: to, Error: cmp.Or(errStr, fx.busErr)})
		// A terminal job is deletable, and a concurrent Delete's Bus.Drop
		// could have run just before this publish recreated the topic:
		// re-checking the table closes that window, so deleted jobs never
		// leak topics.
		if _, ok := m.job(j.ID); !ok {
			m.events.Drop(j.ID)
		}
	}
	if fx.release {
		m.admission.release(j)
	}
	m.scrub(pruned)
	if fx.log != "" {
		attrs := []any{"job_id", j.ID, "trace_id", j.traceID, "state", string(to)}
		switch {
		case to == StateRunning:
			attrs = append(attrs, "wait_sec", waited.Seconds())
		case from == StateRunning:
			attrs = append(attrs, "run_sec", ran.Seconds())
		}
		if errStr == "" {
			m.log.Info(fx.log, attrs...)
		} else {
			m.log.Error(fx.log, append(attrs, "err", errStr)...)
		}
	}
	if fx.calibrate {
		m.met.observeStages(stagesOf(res.Times))
		// Calibrate against the pipeline's own stage clock, not
		// submit-to-finish wall time: staging is paid only by the first job
		// per dataset and verification doubles the compute, so folding
		// either into the EWMA would inflate every later estimate and shed
		// work the budget actually had room for.
		m.admission.observeRuntime(j.est.modelSec, res.Times.Total.Seconds())
	}
	return nil
}
