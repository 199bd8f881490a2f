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

// assembleSpans builds the job's span tree from its current state, under
// j.mu. It works on live jobs too: spans whose operation has not ended yet
// carry a zero End and report zero duration.
func (m *Manager) assembleSpans(j *Job) []obs.Span {
	j.mu.Lock()
	defer j.mu.Unlock()
	sid := func(name string) string { return obs.DeriveSpanID(j.traceID, name) }

	root := obs.Span{
		SpanID: sid("job"),
		Parent: j.parentSpan,
		Name:   "job",
		Start:  j.submitted,
		End:    j.finished,
		Attrs: []obs.Attr{
			{Key: "job_id", Value: j.ID},
			{Key: "node", Value: m.opt.NodeID},
			{Key: "state", Value: string(j.state)},
			{Key: "priority", Value: j.Priority.String()},
			{Key: "cache_hit", Value: strconv.FormatBool(j.cacheHit)},
		},
	}
	if j.recovered {
		root.Attrs = append(root.Attrs, obs.Attr{Key: "recovered", Value: "true"})
	}
	if j.err != "" {
		root.Attrs = append(root.Attrs, obs.Attr{Key: "error", Value: j.err})
	}
	spans := []obs.Span{root}

	if j.cacheHit {
		spans = append(spans, obs.Span{
			SpanID: sid("cache.hit"), Parent: root.SpanID, Name: "cache.hit",
			Start: j.submitted, End: j.finished,
		})
		return spans
	}

	spans = append(spans, obs.Span{
		SpanID: sid("queue.wait"), Parent: root.SpanID, Name: "queue.wait",
		Start: j.submitted, End: j.started,
	})
	if !j.tStage0.IsZero() {
		spans = append(spans, obs.Span{
			SpanID: sid("stage.dataset"), Parent: root.SpanID, Name: "stage.dataset",
			Start: j.tStage0, End: j.tRun0,
		})
	}
	if !j.tRun0.IsZero() {
		compute := obs.Span{
			SpanID: sid("compute"), Parent: root.SpanID, Name: "compute",
			Start: j.tRun0,
		}
		if j.times.Compute > 0 {
			compute.End = j.tRun0.Add(j.times.Compute)
		}
		if omitted := len(j.rounds) - maxRoundSpans; omitted > 0 {
			compute.Attrs = append(compute.Attrs,
				obs.Attr{Key: "rounds_omitted", Value: strconv.Itoa(omitted)})
		}
		spans = append(spans, compute)
		for r, rt := range j.rounds {
			if r >= maxRoundSpans {
				break
			}
			attr := []obs.Attr{{Key: "round", Value: strconv.Itoa(r)}}
			spans = append(spans,
				// The filter stage ends with the transposed block the
				// column shares; back-projection does not transpose.
				obs.Span{
					SpanID: sid(fmt.Sprintf("filter.round.%d", r)), Parent: compute.SpanID,
					Name:  "filter.round",
					Start: j.tRun0.Add(rt.FilterOff), End: j.tRun0.Add(rt.FilterOff + rt.FilterDur),
					Attrs: []obs.Attr{attr[0], {Key: "covers", Value: "load+filter+transpose"}},
				},
				obs.Span{
					SpanID: sid(fmt.Sprintf("allgather.round.%d", r)), Parent: compute.SpanID,
					Name:  "allgather.round",
					Start: j.tRun0.Add(rt.GatherOff), End: j.tRun0.Add(rt.GatherOff + rt.GatherDur),
					Attrs: attr,
				})
		}
		if j.times.Backproject > 0 {
			// Back-projection overlaps the filter/AllGather rounds inside
			// the compute phase; its span records accumulated busy time
			// (== StageTimes.Backproject), anchored at the phase start.
			spans = append(spans, obs.Span{
				SpanID: sid("backproject"), Parent: compute.SpanID, Name: "backproject",
				Start: j.tRun0, End: j.tRun0.Add(j.times.Backproject),
				Attrs: []obs.Attr{{Key: "kind", Value: "busy"}},
			})
		}
		if j.times.Compute > 0 && j.times.Reduce > 0 {
			t0 := j.tRun0.Add(j.times.Compute)
			spans = append(spans, obs.Span{
				SpanID: sid("reduce"), Parent: root.SpanID, Name: "reduce",
				Start: t0, End: t0.Add(j.times.Reduce),
			})
			if j.times.Store > 0 {
				t1 := t0.Add(j.times.Reduce)
				spans = append(spans, obs.Span{
					SpanID: sid("store"), Parent: root.SpanID, Name: "store",
					Start: t1, End: t1.Add(j.times.Store),
				})
			}
		}
	}
	if !j.tVerify0.IsZero() {
		spans = append(spans, obs.Span{
			SpanID: sid("verify"), Parent: root.SpanID, Name: "verify",
			Start: j.tVerify0, End: j.tVerify1,
		})
	}
	return spans
}

// publishTrace announces on the event bus that a job's trace is final.
// Called once, just before the terminal event, on whichever goroutine
// settles the job.
func (m *Manager) publishTrace(j *Job) {
	m.events.Publish(j.ID, Event{Type: EventTrace, TraceID: j.traceID})
}

// toAPISpans converts assembled spans to the wire form.
func toAPISpans(traceID, service string, spans []obs.Span) []api.Span {
	out := make([]api.Span, len(spans))
	for i, s := range spans {
		w := api.Span{
			TraceID:      traceID,
			SpanID:       s.SpanID,
			ParentSpanID: s.Parent,
			Name:         s.Name,
			Service:      service,
			Start:        s.Start.UTC().Format(time.RFC3339Nano),
			DurationSec:  s.Duration().Seconds(),
		}
		if len(s.Attrs) > 0 {
			w.Attrs = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				w.Attrs[a.Key] = a.Value
			}
		}
		out[i] = w
	}
	return out
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
		Spans: toAPISpans(j.traceID, "ifdkd", m.assembleSpans(j)),
	}, nil
}
