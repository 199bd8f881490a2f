package service

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ifdk/internal/hpc/pfs"
)

// TestLifecycleTable walks every (state, event) pair: the eleven legal
// moves land where the lifecycle says, every other pair is refused, and
// each legal move's effects follow the contract — a charge is released
// exactly on a queued/running → terminal move, a journal replay publishes
// no trace and appends nothing, a cache hit releases nothing, and only a
// finished run puts to the cache and calibrates the cost model.
func TestLifecycleTable(t *testing.T) {
	legal := map[edge]State{
		{stateNew, evAdmit}:       StateQueued,
		{stateNew, evCacheHit}:    StateDone,
		{stateNew, evRecover}:     StateQueued,
		{stateNew, evSucceed}:     StateDone,
		{stateNew, evFail}:        StateFailed,
		{stateNew, evCancel}:      StateCancelled,
		{StateQueued, evStart}:    StateRunning,
		{StateQueued, evCancel}:   StateCancelled,
		{StateRunning, evSucceed}: StateDone,
		{StateRunning, evFail}:    StateFailed,
		{StateRunning, evCancel}:  StateCancelled,
	}
	terminalBus := map[State]EventType{StateDone: EventDone, StateFailed: EventFailed, StateCancelled: EventCancelled}
	states := []State{stateNew, StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}
	for _, from := range states {
		for ev := event(0); ev < numEvents; ev++ {
			to, fx, err := transition(from, ev)
			want, ok := legal[edge{from, ev}]
			if !ok {
				if err == nil || to != from || !reflect.DeepEqual(fx, effects{}) {
					t.Errorf("(%q, %s): accepted as → %q %+v, want refused", from, ev, to, fx)
				}
				continue
			}
			if err != nil || to != want {
				t.Errorf("(%q, %s) → %q, %v; want %q", from, ev, to, err, want)
				continue
			}
			replayed := from == stateNew && ev != evAdmit && ev != evCacheHit
			ran := from == StateRunning
			var wantJournal []string
			switch {
			case ev == evCacheHit:
				wantJournal = []string{recSubmit, recTerminal}
			case ev == evStart:
				wantJournal = []string{recStart}
			case to.Terminal() && !replayed:
				wantJournal = []string{recTerminal}
			}
			wantCount := countNone
			switch {
			case ev == evCacheHit:
				wantCount = countCacheHit
			case ev == evRecover:
				wantCount = countRequeued
			case replayed:
				wantCount = countRestored
			case to == StateDone:
				wantCount = countCompleted
			case to == StateFailed:
				wantCount = countFailed
			case to == StateCancelled:
				wantCount = countCancelled
			}
			wantBus := terminalBus[to]
			switch to {
			case StateRunning:
				wantBus = EventStarted
			case StateQueued:
				wantBus = "" // the opening event is the stream's first and only word
			}
			for _, c := range []struct {
				what      string
				got, want any
			}{
				{"cachePut", fx.cachePut, ran && to == StateDone},
				{"calibrate", fx.calibrate, ran && to == StateDone},
				{"enter", fx.enter, from == stateNew && ev != evAdmit}, // Submit enters an admitted job itself
				{"count", fx.count, wantCount},
				{"wait", fx.wait, ev == evStart},
				{"opened", fx.opened, from == stateNew},
				{"trace", fx.trace, to.Terminal() && !replayed},
				{"bus", fx.bus, wantBus},
				{"release", fx.release, (from == StateQueued || ran) && to.Terminal()},
				{"journal", fx.journal, wantJournal},
				{"logged", fx.log != "", ev == evRecover || !replayed && ev != evAdmit}, // Submit logs the admission
				{"busErr", fx.busErr != "", from == StateQueued && ev == evCancel},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Errorf("(%q, %s): %s = %v, want %v", from, ev, c.what, c.got, c.want)
				}
			}
		}
	}
	for st, ev := range replayEvent {
		if to, _, err := transition(stateNew, ev); err != nil || to != st {
			t.Errorf("replaying %s lands in %q (%v)", st, to, err)
		}
	}
}

// apply is a compare-and-swap: a job that has left the state the caller
// saw is not moved, and no effect runs.
func TestApplyRefusesStaleState(t *testing.T) {
	m := NewManager(Options{Workers: 1})
	defer shutdown(t, m)
	j := &Job{ID: "stale", state: StateDone}
	if err := m.apply(j, StateRunning, evFail, nil, func() { j.err = "late" }); err == nil {
		t.Fatal("apply moved a job that was not in the state it named")
	}
	if j.state != StateDone || j.err != "" || m.met.failed.Value() != 0 {
		t.Errorf("refused move left state %s, err %q, failed %d", j.state, j.err, m.met.failed.Value())
	}
}

// Job.state has one writer: every assignment to a state field, and every
// state key in a composite literal, in the package's non-test code sits
// inside Manager.apply.
func TestStateWrittenOnlyByApply(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "apply" {
				continue
			}
			ast.Inspect(fd, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					lhs = n.Lhs
				case *ast.KeyValueExpr:
					lhs = []ast.Expr{n.Key}
				}
				for _, e := range lhs {
					var id *ast.Ident
					switch e := e.(type) {
					case *ast.SelectorExpr:
						id = e.Sel
					case *ast.Ident:
						if _, ok := n.(*ast.KeyValueExpr); ok {
							id = e
						}
					}
					if id != nil && id.Name == "state" {
						t.Errorf("%s: %s writes a job state outside apply", fset.Position(e.Pos()), fd.Name.Name)
					}
				}
				return true
			})
		}
	}
}

// Every terminal path — a run that finished, a run that failed, a job
// cancelled while queued and a cache hit — comes back from the journal
// across a crash with the view it had: state, error, cache flag,
// verification, stage clock and timestamps.
func TestCrashRestartReplaysEveryTerminalPath(t *testing.T) {
	dir := t.TempDir()
	gate := newSliceGate()
	defer gate.open()
	m1, err := OpenManager(Options{Workers: 1, NodeID: "b0", JournalDir: dir, testOnSlice: gate.hook})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	spec.Verify = true
	done, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The one worker is held inside the first job's epilogue while a second
	// job queues behind it and is withdrawn.
	waitRunning(t, m1, done.ID)
	queuedSpec := testSpec()
	queuedSpec.Phantom = "sphere"
	withdrawn, err := m1.Submit(queuedSpec)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Cancel(withdrawn.ID); err != nil {
		t.Fatal(err)
	}
	gate.open()
	waitState(t, m1, done.ID, 30*time.Second)
	hit, err := m1.Submit(spec)
	if err != nil || !hit.CacheHit {
		t.Fatalf("resubmission: %+v, %v; want a cache hit", hit, err)
	}

	// A second window reads the dataset the first job staged; one truncated
	// projection makes its run fail.
	rs, err := resolveSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Store().Write(pfs.ProjectionPath(rs.cfg.InputPrefix, 0), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	broken := spec
	broken.Window = "hann"
	failed, err := m1.Submit(broken)
	if err != nil {
		t.Fatal(err)
	}

	ids := []string{done.ID, hit.ID, failed.ID, withdrawn.ID}
	before := make([]View, len(ids))
	for i, id := range ids {
		before[i] = waitState(t, m1, id, 30*time.Second)
	}
	for i, want := range []State{StateDone, StateDone, StateFailed, StateCancelled} {
		if before[i].State != want {
			t.Fatalf("job %s ended %s (%s), want %s", ids[i], before[i].State, before[i].Error, want)
		}
	}
	if before[3].Started != "" {
		t.Fatalf("withdrawn job %s started at %s: it was cancelled running, not queued", ids[3], before[3].Started)
	}
	m1.Crash()

	m2, err := OpenManager(Options{Workers: 1, NodeID: "b0", JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, m2)
	for i, id := range ids {
		got, ok := m2.Get(id)
		if !ok {
			t.Fatalf("job %s lost across the crash", id)
		}
		b := before[i]
		if got.State != b.State || got.Error != b.Error || got.CacheHit != b.CacheHit ||
			got.Verified != b.Verified || got.RelRMSE != b.RelRMSE || got.Stages != b.Stages ||
			got.Submitted != b.Submitted || got.Finished != b.Finished {
			t.Errorf("job %s replayed as\n%+v\nwant\n%+v", id, got, b)
		}
	}
}

// A transition's journal records are durable before its new state is
// visible. With the journal's writer held, a queued job's Cancel cannot be
// read as cancelled: were the flip visible first, a crash at that moment
// would replay the job a client saw cancelled as queued. Once the writer
// lets go, the job reads cancelled and replays so.
func TestTerminalJournaledBeforeVisible(t *testing.T) {
	dir := t.TempDir()
	gate := newSliceGate()
	defer gate.open()
	m1, err := OpenManager(Options{Workers: 1, NodeID: "b0", JournalDir: dir, testOnSlice: gate.hook})
	if err != nil {
		t.Fatal(err)
	}
	busy, err := m1.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, m1, busy.ID) // the one worker is held: the next job stays queued
	queuedSpec := testSpec()
	queuedSpec.Phantom = "sphere"
	queued, err := m1.Submit(queuedSpec)
	if err != nil {
		t.Fatal(err)
	}

	m1.journal.mu.Lock()
	cancelled := make(chan error, 1)
	go func() { cancelled <- m1.Cancel(queued.ID) }()
	seen := make(chan State, 1)
	go func() {
		for {
			if v, _ := m1.Get(queued.ID); v.State.Terminal() {
				seen <- v.State
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	select {
	case st := <-seen:
		m1.journal.mu.Unlock()
		t.Fatalf("job %s read as %s before its terminal record was journaled", queued.ID, st)
	case <-time.After(200 * time.Millisecond):
	}
	m1.journal.mu.Unlock()
	if err := <-cancelled; err != nil {
		t.Fatal(err)
	}
	if st := <-seen; st != StateCancelled {
		t.Fatalf("job %s read as %s, want cancelled", queued.ID, st)
	}
	gate.open()
	m1.Crash()

	m2, err := OpenManager(Options{Workers: 1, NodeID: "b0", JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, m2)
	if got, ok := m2.Get(queued.ID); !ok || got.State != StateCancelled {
		t.Fatalf("job %s replayed as %+v (found %v), want cancelled", queued.ID, got, ok)
	}
}
