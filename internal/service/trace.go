package service

import (
	"fmt"
	"strconv"
	"time"

	"ifdk/internal/obs"
	"ifdk/pkg/api"
)

// Span assembly: one trace per job, spans derived on each request from the
// job record and the compute plane's pre-sized per-round buffers — the
// pipeline itself never allocates or records spans mid-run, and nothing
// retains a trace apart from its job. Span IDs are derived
// deterministically from (trace ID, span name), so a mid-run GET and one
// after the job settles agree on every ID.

// maxRoundSpans bounds the per-round children of the compute span so a
// many-round job cannot balloon the trace; the omission is recorded as a
// rounds_omitted attribute on the compute span.
const maxRoundSpans = 96

// assembleSpans builds the job's span tree in its wire form from the job's
// current state, under j.mu. It works on live jobs too: spans whose
// operation has not ended yet report zero duration.
func (m *Manager) assembleSpans(j *Job) []api.Span {
	j.mu.Lock()
	defer j.mu.Unlock()
	// span derives the span's ID from idName, which differs from its name
	// only for the per-round spans.
	span := func(idName, name, parent string, start, end time.Time, attrs map[string]string) api.Span {
		return api.Span{
			TraceID: j.traceID, SpanID: obs.DeriveSpanID(j.traceID, idName), ParentSpanID: parent,
			Name: name, Service: "ifdkd",
			Start: start.UTC().Format(time.RFC3339Nano), DurationSec: durationSec(start, end),
			Attrs: attrs,
		}
	}

	root := span("job", "job", j.parentSpan, j.submitted, j.finished, map[string]string{
		"job_id":    j.ID,
		"node":      m.opt.NodeID,
		"state":     string(j.state),
		"priority":  j.prio.String(),
		"cache_hit": strconv.FormatBool(j.cacheHit),
	})
	if j.recovered {
		root.Attrs["recovered"] = "true"
	}
	if j.err != "" {
		root.Attrs["error"] = j.err
	}
	spans := []api.Span{root}

	if j.cacheHit {
		return append(spans, span("cache.hit", "cache.hit", root.SpanID, j.submitted, j.finished, nil))
	}

	spans = append(spans, span("queue.wait", "queue.wait", root.SpanID, j.submitted, j.started, nil))
	if !j.tStage0.IsZero() {
		spans = append(spans, span("stage.dataset", "stage.dataset", root.SpanID, j.tStage0, j.tRun0, nil))
	}
	if !j.tRun0.IsZero() {
		var computeEnd time.Time
		if j.times.Compute > 0 {
			computeEnd = j.tRun0.Add(j.times.Compute)
		}
		compute := span("compute", "compute", root.SpanID, j.tRun0, computeEnd, nil)
		if omitted := len(j.rounds) - maxRoundSpans; omitted > 0 {
			compute.Attrs = map[string]string{"rounds_omitted": strconv.Itoa(omitted)}
		}
		spans = append(spans, compute)
		for r, rt := range j.rounds {
			if r >= maxRoundSpans {
				break
			}
			round := strconv.Itoa(r)
			spans = append(spans,
				// The filter stage ends with the transposed block the
				// column shares; back-projection does not transpose.
				span("filter.round."+round, "filter.round", compute.SpanID,
					j.tRun0.Add(rt.FilterOff), j.tRun0.Add(rt.FilterOff+rt.FilterDur),
					map[string]string{"round": round, "covers": "load+filter+transpose"}),
				span("allgather.round."+round, "allgather.round", compute.SpanID,
					j.tRun0.Add(rt.GatherOff), j.tRun0.Add(rt.GatherOff+rt.GatherDur),
					map[string]string{"round": round}))
		}
		if j.times.Backproject > 0 {
			// Back-projection overlaps the filter/AllGather rounds inside
			// the compute phase; its span records accumulated busy time
			// (== StageTimes.Backproject), anchored at the phase start.
			spans = append(spans, span("backproject", "backproject", compute.SpanID,
				j.tRun0, j.tRun0.Add(j.times.Backproject), map[string]string{"kind": "busy"}))
		}
		if j.times.Compute > 0 && j.times.Reduce > 0 {
			t0 := j.tRun0.Add(j.times.Compute)
			spans = append(spans, span("reduce", "reduce", root.SpanID, t0, t0.Add(j.times.Reduce), nil))
			if j.times.Store > 0 {
				t1 := t0.Add(j.times.Reduce)
				spans = append(spans, span("store", "store", root.SpanID, t1, t1.Add(j.times.Store), nil))
			}
		}
	}
	if !j.tVerify0.IsZero() {
		spans = append(spans, span("verify", "verify", root.SpanID, j.tVerify0, j.tVerify1, nil))
	}
	return spans
}

// durationSec is a span's elapsed time in seconds, zero while it is still
// open (a zero end).
func durationSec(start, end time.Time) float64 {
	if end.IsZero() {
		return 0
	}
	return end.Sub(start).Seconds()
}

// publishTrace announces on the event bus that a job's trace is final.
// Called once, just before the terminal event, on whichever goroutine
// settles the job.
func (m *Manager) publishTrace(j *Job) {
	m.events.Publish(j.ID, Event{Type: EventTrace, TraceID: j.traceID})
}

// TraceFor assembles a job's trace from its record: Complete once the job
// is terminal, a partial tree while it is still in flight. A trace lives
// exactly as long as its job record, so it is bounded by MaxJobs.
func (m *Manager) TraceFor(id string) (api.Trace, error) {
	j, ok := m.job(id)
	if !ok {
		return api.Trace{}, fmt.Errorf("job %q: %w", id, ErrNotFound)
	}
	return api.Trace{
		TraceID: j.traceID, Job: id, Complete: j.State().Terminal(),
		Spans: m.assembleSpans(j),
	}, nil
}
