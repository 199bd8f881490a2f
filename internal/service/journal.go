package service

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"ifdk/internal/core"
	"ifdk/pkg/api"
)

// The write-ahead job journal makes accepted jobs durable across daemon
// restarts. Every lifecycle transition is appended as one JSON line to a
// file on the real filesystem (the simulated PFS dies with the process) and
// fsynced before the client is acked, so a kill -9 at any instant loses at
// most work, never accepted state. On boot the journal is replayed:
// terminal jobs come back as metadata-only views under their original
// public IDs, and non-terminal jobs — queued or mid-run at the crash —
// re-enter admission under their original IDs, because reconstruction is
// deterministic given the Spec and re-execution reproduces the exact
// volume.
//
// Record types. A job's life is at most four lines:
//
//	{"t":"submit","id":"b0-j00000007","spec":{...},"trace_id":...}
//	{"t":"start","id":"b0-j00000007","started":...}
//	{"t":"terminal","id":"b0-j00000007","state":"done","stages":{...}}
//	{"t":"delete","id":"b0-j00000007"}
//
// Appends from the submit path and the worker pool are not ordered with
// respect to each other (a worker can pop and even finish a job before
// Submit's own append lands), so replay merges records per ID
// order-tolerantly: a terminal record wins over a start record wins over a
// submit record, whatever order they appear in. The journal is compacted on
// boot — live state is rewritten as a minimal record set — so the file is
// bounded by the retained job table, not daemon lifetime.
const (
	recSubmit   = "submit"
	recStart    = "start"
	recTerminal = "terminal"
	recDelete   = "delete"
	// recSeq pins the ID sequence high-water mark across compactions, so a
	// deleted job's records vanishing can never let a restarted daemon
	// reissue its public ID.
	recSeq = "seq"
)

// journalRecord is one appended line. Fields are a union over the record
// types; unused ones are omitted.
type journalRecord struct {
	T  string `json:"t"`
	ID string `json:"id"`

	// seq (recSeq records only)
	Seq int64 `json:"seq,omitempty"`

	// submit
	Spec       *api.Spec `json:"spec,omitempty"`
	TraceID    string    `json:"trace_id,omitempty"`
	ParentSpan string    `json:"parent_span,omitempty"`
	Submitted  string    `json:"submitted,omitempty"`

	// start
	Started string `json:"started,omitempty"`

	// terminal
	State    string      `json:"state,omitempty"`
	Error    string      `json:"error,omitempty"`
	Finished string      `json:"finished,omitempty"`
	CacheHit bool        `json:"cache_hit,omitempty"`
	Verified bool        `json:"verified,omitempty"`
	RelRMSE  float64     `json:"rel_rmse,omitempty"`
	Stages   *api.Stages `json:"stages,omitempty"`
}

// errJournalClosed is reported by append after Close/Crash; callers treat
// it as "the process is gone", not as an I/O failure.
var errJournalClosed = errors.New("service: journal closed")

// journal is the append-only WAL. One file, one writer lock; every append
// is flushed and fsynced before it returns, so an acked transition is on
// disk even across power loss — the whole point of the WAL.
type journal struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	closed bool
}

// journalFile is the WAL's name under Options.JournalDir.
const journalFile = "jobs.wal"

// openJournal replays the journal under dir (if any), compacts it, and
// opens it for appending. The returned records are the merged per-job
// recovery set in first-seen order; maxSeq is the ID sequence high-water
// mark the recovering manager must resume past.
func openJournal(dir string) (*journal, []recoveredJob, int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("service: journal dir: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	recs, err := readJournal(path)
	if err != nil {
		return nil, nil, 0, err
	}
	jobs, maxSeq := mergeRecords(recs)
	if err := compactJournal(dir, path, jobs, maxSeq); err != nil {
		return nil, nil, 0, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("service: journal open: %w", err)
	}
	return &journal{f: f, path: path}, jobs, maxSeq, nil
}

// readJournal decodes every record in the file. A torn final line — the
// signature of a crash mid-append — is skipped; a torn, corrupt or
// over-long line anywhere else is skipped too (one bad record must not
// brick recovery of every other job).
func readJournal(path string) ([]journalRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("service: journal read: %w", err)
	}
	defer f.Close()
	var out []journalRecord
	r := bufio.NewReaderSize(f, 1<<20)
	for long := false; ; {
		line, more, err := r.ReadLine()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("service: journal scan: %w", err)
		}
		if long || more {
			long = more // a line over the buffer is corrupt too: skip all of it
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.ID == "" {
			continue // torn append or corruption: skip, recover the rest
		}
		out = append(out, rec)
	}
}

// recoveredJob is one job's merged journal records, ready for readmission.
type recoveredJob struct {
	ID      string
	State   api.State      // queued, unless the job's terminal record says otherwise
	submit  journalRecord  // its submit record (the last one carrying a spec)
	started string         // its start record's timestamp, if any
	term    *journalRecord // its terminal record; nil unless State is terminal
	deleted bool
}

// mergeRecords folds the raw record stream into per-job recovery state,
// order-tolerantly (see the package comment on append interleaving).
// Deleted jobs and jobs with no surviving submit record are dropped, but
// their IDs still raise the returned sequence high-water mark.
func mergeRecords(recs []journalRecord) ([]recoveredJob, int64) {
	byID := make(map[string]*recoveredJob)
	var order []string
	var maxSeq int64
	get := func(id string) *recoveredJob {
		r, ok := byID[id]
		if !ok {
			r = &recoveredJob{ID: id, State: api.StateQueued}
			byID[id] = r
			order = append(order, id)
		}
		return r
	}
	for _, rec := range recs {
		if rec.T == recSeq {
			maxSeq = max(maxSeq, rec.Seq)
			continue
		}
		maxSeq = max(maxSeq, idSeq(rec.ID))
		r := get(rec.ID)
		switch rec.T {
		case recSubmit:
			if rec.Spec != nil {
				r.submit = rec
			}
		case recStart:
			r.started = rec.Started
		case recTerminal:
			r.term = &rec
		case recDelete:
			r.deleted = true
		}
	}
	out := make([]recoveredJob, 0, len(order))
	for _, id := range order {
		r := byID[id]
		if r.deleted || r.submit.Spec == nil {
			continue
		}
		if r.term != nil && api.State(r.term.State).Terminal() {
			r.State = api.State(r.term.State)
		} else {
			// Queued or mid-run at the crash: re-enter admission, unstarted.
			r.term, r.started = nil, ""
		}
		out = append(out, *r)
	}
	return out, maxSeq
}

// compactJournal rewrites the live recovery set as a minimal record
// sequence via a temp file + rename, then fsyncs the directory so the
// swap itself is durable.
func compactJournal(dir, path string, jobs []recoveredJob, maxSeq int64) error {
	tmp, err := os.CreateTemp(dir, journalFile+".compact-*")
	if err != nil {
		return fmt.Errorf("service: journal compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	enc := json.NewEncoder(tmp)
	if maxSeq > 0 {
		if err := enc.Encode(journalRecord{T: recSeq, ID: "_", Seq: maxSeq}); err != nil {
			tmp.Close()
			return fmt.Errorf("service: journal compact: %w", err)
		}
	}
	for i := range jobs {
		for _, rec := range compactRecords(&jobs[i]) {
			if err := enc.Encode(rec); err != nil {
				tmp.Close()
				return fmt.Errorf("service: journal compact: %w", err)
			}
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("service: journal compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("service: journal compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("service: journal compact: %w", err)
	}
	// Appends go to the renamed file: until the rename is durable, an acked
	// record can vanish with it on a power cut.
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("service: journal compact: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("service: journal compact: %w", err)
	}
	return nil
}

// compactRecords is the minimal record set reproducing one job's merged
// state on the next replay; a settled job keeps its start stamp.
func compactRecords(r *recoveredJob) []journalRecord {
	out := []journalRecord{r.submit}
	if r.started != "" {
		out = append(out, journalRecord{T: recStart, ID: r.ID, Started: r.started})
	}
	if r.term != nil {
		out = append(out, *r.term)
	}
	return out
}

// append writes one record and fsyncs it before returning — the
// fsync-before-ack contract the submit path relies on (and
// TestJournalSyncsBeforeAck checks).
func (w *journal) append(rec journalRecord) error {
	blob, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("service: journal encode: %w", err)
	}
	blob = append(blob, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errJournalClosed
	}
	if _, err := w.f.Write(blob); err != nil {
		return fmt.Errorf("service: journal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("service: journal fsync: %w", err)
	}
	return nil
}

// close stops the journal; later appends report errJournalClosed. Used by
// Shutdown and by Crash, where closing first is the simulated kill point:
// nothing a still-unwinding worker does afterwards can reach the file. A
// nil journal (journaling off) has nothing to close.
func (w *journal) close() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	_ = w.f.Close()
}

// recordLocked builds the job's journal record of type t (recSubmit,
// recStart or recTerminal) from its current state; the caller holds j.mu.
func (j *Job) recordLocked(t string) journalRecord {
	switch t {
	case recSubmit:
		spec := j.Spec
		return journalRecord{
			T: recSubmit, ID: j.ID, Spec: &spec,
			TraceID: j.traceID, ParentSpan: j.parentSpan,
			Submitted: fmtTime(j.submitted),
		}
	case recStart:
		return journalRecord{T: recStart, ID: j.ID, Started: fmtTime(j.started)}
	}
	st := stagesOf(j.times)
	return journalRecord{
		T: recTerminal, ID: j.ID, State: string(j.state), Error: j.err,
		Finished: fmtTime(j.finished), CacheHit: j.cacheHit,
		Verified: j.verified, RelRMSE: j.relRMSE, Stages: &st,
	}
}

// parseJTime decodes fmtTime's RFC3339Nano output; "" or a malformed stamp
// decodes to the zero time, which is what time.Parse returns on error.
func parseJTime(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s)
	return t
}

// idSeq extracts the numeric sequence from a public job ID
// ("b2-j00000007" → 7), so a recovering manager resumes its ID sequence
// past every journaled job and never reissues a public ID.
func idSeq(id string) int64 {
	i := strings.LastIndex(id, "j")
	if i < 0 {
		return 0
	}
	n, err := strconv.ParseInt(id[i+1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// stagesToTimes inverts stagesOf for replayed terminal views (nil: none
// recorded).
func stagesToTimes(s *api.Stages) core.StageTimes {
	if s == nil {
		return core.StageTimes{}
	}
	// Round, not truncate: n/1e9·1e9 can land a hair under the integer n.
	d := func(sec float64) time.Duration { return time.Duration(math.Round(sec * float64(time.Second))) }
	return core.StageTimes{
		Load: d(s.Load), Filter: d(s.Filter), AllGather: d(s.AllGather),
		Backproject: d(s.Backproject), Compute: d(s.Compute),
		Reduce: d(s.Reduce), Store: d(s.Store), Total: d(s.Total),
	}
}

// jAppend writes one journal record when journaling is on. Worker-side
// appends (start/terminal/delete) are best-effort: a failure is logged and
// counted, never fatal — the job's in-memory lifecycle proceeds and the
// worst case on a later replay is rerunning finished deterministic work.
// The submit path checks the error itself (fsync-before-ack).
func (m *Manager) jAppend(rec journalRecord) error {
	if m.journal == nil {
		return nil
	}
	err := m.journal.append(rec)
	switch {
	case err == nil:
		m.met.journalRecords.With(rec.T).Inc()
	case errors.Is(err, errJournalClosed):
		// Shutdown or simulated kill: the process is "gone"; drop silently.
	default:
		m.met.journalErrors.Inc()
		m.log.Error("journal append failed", "type", rec.T, "job_id", rec.ID, "err", err.Error())
	}
	return err
}

// recoverJobs readmits the journal's merged recovery set. Terminal jobs
// come back as metadata-only views (their volumes lived in the result
// cache, which a crash destroys; resubmitting the same spec re-derives
// them bit-exactly). Non-terminal jobs — queued or mid-run at
// the crash — re-enter the queue under their original public IDs.
func (m *Manager) recoverJobs(jobs []recoveredJob) {
	for i := range jobs {
		if err := m.recoverJob(&jobs[i]); err != nil {
			m.met.journalErrors.Inc()
			m.log.Error("journal replay: job not recovered", "job_id", jobs[i].ID, "err", err.Error())
		}
	}
}

func (m *Manager) recoverJob(r *recoveredJob) error {
	sub := r.submit
	rs, err := resolveSpec(*sub.Spec)
	if err != nil {
		return err
	}
	est, err := m.admission.estimate(rs)
	if err != nil {
		return err
	}
	submitted := cmp.Or(parseJTime(sub.Submitted), time.Now())
	j := m.newJob(r.ID, rs, est, submitted, cmp.Or(sub.TraceID, api.NewTraceID()), sub.ParentSpan)
	j.recovered = true
	if t := r.term; t != nil {
		return m.apply(j, stateNew, replayEvent[r.State], nil, func() {
			j.err, j.cacheHit, j.verified, j.relRMSE = t.Error, t.CacheHit, t.Verified, t.RelRMSE
			j.times = stagesToTimes(t.Stages)
			j.started, j.finished = parseJTime(r.started), cmp.Or(parseJTime(t.Finished), j.submitted)
		})
	}
	if err := m.apply(j, stateNew, evRecover, nil, nil); err != nil {
		return err
	}
	return m.admission.push(j) // re-enters under its original ID; push skips the budgets
}
