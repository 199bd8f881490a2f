package router

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"ifdk/internal/obs"
	"ifdk/pkg/api"
)

// TestRouteTable walks every (phase, event) pair under every kind of report
// and placement: the legal moves land where the lifecycle says, every other
// pair is refused, and each legal move's effects follow the contract — the
// TTL clock starts when a route turns terminal (or a submission rebuilds it
// terminal) and stops when it turns live, observations and moves are
// guarded by placement, a move counts a reroute and logs it, and an expiry
// counts itself.
func TestRouteTable(t *testing.T) {
	phases := [numPhases]string{"absent", "live", "terminal"}
	events := [numEvents]string{"submit", "discover", "observe", "move", "remove", "expire", "evict"}
	reports := []api.State{"", api.StateQueued, api.StateRunning, api.StateDone, api.StateCancelled}
	for from := absent; from < numPhases; from++ {
		for ev := event(0); ev < numEvents; ev++ {
			for _, st := range reports {
				for _, placed := range []bool{false, true} {
					pair := fmt.Sprintf("(%s, %s, %q, placed=%v)", phases[from], events[ev], st, placed)
					var legal bool
					switch ev {
					case evSubmit:
						legal = st != ""
					case evDiscover:
						legal = from == absent && st != ""
					case evObserve:
						legal = from != absent && st != "" && placed
					case evMove:
						legal = from == live && st != "" && placed
					case evRemove, evEvict:
						legal = from != absent && st == ""
					case evExpire:
						legal = from == terminal && st == ""
					}
					to, fx, ok := transition(from, ev, st, placed)
					if !legal {
						if ok || to != from || fx != (effects{}) {
							t.Errorf("%s: accepted as → %s %+v, want refused", pair, phases[to], fx)
						}
						continue
					}
					want := absent
					if st != "" {
						want = live
						if st.Terminal() {
							want = terminal
						}
					}
					if !ok || to != want {
						t.Errorf("%s → %s, %v; want %s", pair, phases[to], ok, phases[want])
						continue
					}
					wantFx := effects{
						placed:  ev == evObserve || ev == evMove,
						stamp:   to == terminal && (from != terminal || ev == evSubmit),
						clear:   to == live,
						reroute: ev == evMove,
						expire:  ev == evExpire,
					}
					got := fx
					got.log = ""
					if got != wantFx || (fx.log != "") != (ev == evMove) {
						t.Errorf("%s: effects %+v, want %+v with a log line only on a move", pair, fx, wantFx)
					}
				}
			}
		}
	}

	// Router.apply derives the placement guard from the route it holds: an
	// observation applies only under the route's backend ID, a move only off
	// the backend the route is on, and a refused event changes nothing.
	rt := &Router{jobs: map[string]*jobRoute{}, log: obs.NopLogger()}
	rt.apply("j", evSubmit, "", jobRoute{backend: "b0", backendID: "j", state: api.StateRunning})
	if rt.apply("j", evObserve, "b1-j9", jobRoute{state: api.StateDone}) ||
		rt.apply("j", evMove, "b1", jobRoute{backend: "b2", backendID: "b2-j3", state: api.StateQueued}) ||
		rt.apply("j", evExpire, "", jobRoute{}) {
		t.Error("apply took an event the route's placement or phase refuses")
	}
	if !rt.apply("j", evMove, "b0", jobRoute{backend: "b2", backendID: "b2-j3", state: api.StateQueued}) {
		t.Fatal("move off the route's dead backend refused")
	}
	if got := *rt.jobs["j"]; got.backend != "b2" || got.backendID != "b2-j3" || got.state != api.StateQueued ||
		rt.reroutes.Load() != 1 || rt.reroutesRunning.Load() != 1 {
		t.Errorf("after the move: route %+v, reroutes %d (running %d), want on b2 as b2-j3, 1 (1)",
			got, rt.reroutes.Load(), rt.reroutesRunning.Load())
	}
	if !rt.apply("j", evObserve, "b2-j3", jobRoute{state: api.StateDone}) || rt.jobs["j"].terminalAt.IsZero() {
		t.Error("observation under the moved route's backend ID did not land terminal with a TTL clock")
	}
}

// The route table has one writer: every assignment to rt.jobs or to a
// route's placement, state, terminalAt or seq — and every delete from the
// table or write through a pointer — in the package's non-test code sits
// inside Router.apply.
func TestRoutesWrittenOnlyByApply(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	owned := map[string]bool{"jobs": true, "backend": true, "backendID": true, "state": true, "terminalAt": true, "seq": true}
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
				case *ast.IncDecStmt:
					lhs = []ast.Expr{n.X}
				case *ast.CallExpr:
					if fn, ok := n.Fun.(*ast.Ident); ok && (fn.Name == "delete" || fn.Name == "clear") {
						lhs = n.Args[:1]
					}
				}
				for _, e := range lhs {
					if ix, ok := e.(*ast.IndexExpr); ok {
						e = ix.X
					}
					var write bool
					switch e := e.(type) {
					case *ast.SelectorExpr:
						write = owned[e.Sel.Name]
					case *ast.StarExpr:
						write = true
					}
					if write {
						t.Errorf("%s: %s writes the route table outside apply", fset.Position(e.Pos()), fd.Name.Name)
					}
				}
				return true
			})
		}
	}
}
