package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"strconv"
)

// EventType labels one job lifecycle event on the wire.
type EventType string

const (
	EventQueued    EventType = "queued"    // admitted into the queue
	EventStarted   EventType = "started"   // a worker picked the job up
	EventRound     EventType = "round"     // one AllGather round completed (coalesced)
	EventSlice     EventType = "slice"     // one output z-slice finished and fetchable
	EventPreview   EventType = "preview"   // the decimated preview volume is ready and fetchable
	EventTrace     EventType = "trace"     // the job's trace has been assembled and is fetchable
	EventDone      EventType = "done"      // terminal: reconstruction finished
	EventFailed    EventType = "failed"    // terminal: reconstruction errored
	EventCancelled EventType = "cancelled" // terminal: cancelled by the client or shutdown
)

// Terminal reports whether the event ends a job's stream.
func (t EventType) Terminal() bool {
	return t == EventDone || t == EventFailed || t == EventCancelled
}

// Event is one entry of a job's event stream, served over SSE by
// GET /v1/jobs/{id}/events. Seq is a per-job sequence number, strictly
// increasing across the stream, and doubles as the SSE event id for
// Last-Event-ID resumption.
type Event struct {
	Seq  int64     `json:"seq"`
	Job  string    `json:"job"`
	Type EventType `json:"type"`
	Time string    `json:"time"`

	// round progress (Type == EventRound)
	Done  int `json:"done,omitempty"`  // completed AllGather rounds
	Total int `json:"total,omitempty"` // Np rounds, or Nz for slice events

	// slice delivery (Type == EventSlice)
	Z       int `json:"z"`                 // global z index of the finished slice
	Written int `json:"written,omitempty"` // cumulative slices finished

	// preview availability (Type == EventPreview): the decimation factor of
	// the finished preview tier; Total carries the coarse slice count.
	Factor int `json:"factor,omitempty"`

	// terminal / state-carrying events
	State State  `json:"state,omitempty"`
	Error string `json:"error,omitempty"`

	// trace availability (Type == EventTrace)
	TraceID string `json:"trace_id,omitempty"`
}

// maxEventLine bounds one line of an /events body, written or read: WriteEvent
// frames no longer data line, and ReadEvents reads no longer line and yields
// only events WriteEvent can frame, so that every event read can be relayed.
const maxEventLine = 1 << 20

// WriteEvent frames e as one Server-Sent Event: Seq as the SSE id (the value
// Last-Event-ID resumes from), Type as the SSE event name, the JSON encoding
// as the data line. Every emitter of /events — the daemon and the router's
// relay — frames through here. An event whose data line would pass 1 MiB is
// an error, and nothing is written.
func WriteEvent(w io.Writer, e Event) error {
	data, err := encodeEvent(e)
	if err == nil {
		_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
	}
	return err
}

// encodeEvent is e's JSON payload, checked against maxEventLine.
func encodeEvent(e Event) ([]byte, error) {
	data, err := json.Marshal(e)
	if err == nil && len("data: ")+len(data) > maxEventLine {
		err = fmt.Errorf("api: event payload of %d bytes does not fit a 1 MiB line", len(data))
	}
	return data, err
}

// ReadEvents decodes an /events body frame by frame — the one SSE parser of
// the SDK, the router's relay and the tests. The sequence ends with the body;
// a malformed payload, a line over 1 MiB or a payload WriteEvent could not
// frame again is yielded as its last element. Only data lines are decoded:
// id and event repeat what the payload carries.
func ReadEvents(r io.Reader) iter.Seq2[Event, error] {
	return func(yield func(Event, error) bool) {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64*1024), maxEventLine)
		for sc.Scan() {
			data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
			if !ok {
				continue
			}
			var e Event
			if err := json.Unmarshal(data, &e); err != nil {
				yield(Event{}, fmt.Errorf("api: bad event payload: %w", err))
				return
			}
			// Re-encoding writes at most six bytes per payload byte (a '<'
			// comes back as \u003c, an invalid byte as U+FFFD) plus the
			// fields it always writes, so only a payload over an eighth of
			// the line limit can grow past it.
			if len(data) > maxEventLine/8 {
				if _, err := encodeEvent(e); err != nil {
					yield(Event{}, err)
					return
				}
			}
			if !yield(e, nil) {
				return
			}
		}
		if err := sc.Err(); err != nil {
			yield(Event{}, fmt.Errorf("api: event stream: %w", err))
		}
	}
}

// ResumeCursor reads the sequence number an /events request resumes after:
// the standard Last-Event-ID header, else the ?after= query parameter, else 0
// (replay from the start).
func ResumeCursor(r *http.Request) (int64, error) {
	s := r.Header.Get("Last-Event-ID")
	if s == "" {
		s = r.URL.Query().Get("after")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if s != "" && (err != nil || n < 0) {
		return 0, errors.New("Last-Event-ID must be a non-negative integer")
	}
	return n, nil
}
