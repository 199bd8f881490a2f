// Package poolcheck is a flow-sensitive checker for the internal/engine
// buffer-pool ownership contract (see the contract comment in
// internal/engine/pool.go, which names this analyzer as its enforcement):
//
//   - double release: a buffer released twice on one path would alias two
//     future acquisitions — the worst class of pool bug, corrupting
//     another job's working set
//   - use after release: reading Buf.Data, an Image row or a Volume after
//     the buffer went back to the pool races with its next owner
//   - foreign donation: releasing a buffer that did not come from Acquire
//     (e.g. a fresh volume.NewImage) skews the in-use byte gauges that
//     pool-aware admission and /v1/metrics rely on — the bug class fixed
//     by hand in PR 3
//   - leak on early return: a pooled buffer that is acquired, never
//     escapes, and is not released on some return path quietly grows the
//     working set under error load — exactly what the decomposed-FDK
//     memory-budget analysis assumes cannot happen
//
// The analysis is intraprocedural and deliberately conservative: a buffer
// that is returned, stored, sent on a channel, captured by a closure or
// passed to another function transfers ownership ("the next pipeline
// stage owns it") and is not tracked further; states that differ between
// branches degrade to "maybe" and stay silent. Diagnostics therefore mean
// a definite contract violation on every path through the reported code.
package poolcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"ifdk/internal/analysis"
)

// Analyzer is the poolcheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "poolcheck",
	Doc:  "enforce the engine pool acquire/release ownership contract",
	Run:  run,
}

type state uint8

const (
	live     state = iota // definitely acquired and owned here
	released              // definitely released
	maybe                 // owned on some paths only
	escaped               // ownership transferred out of this function
	foreign               // fresh non-pooled buffer (volume.NewImage/New)
)

// vinfo tracks one local variable holding a pooled buffer.
type vinfo struct {
	state      state
	acquirePos token.Pos
	releasePos token.Pos
	deferred   bool // a deferred Release owns cleanup
}

type env map[*types.Var]*vinfo

func (e env) clone() env {
	out := make(env, len(e))
	for k, v := range e {
		c := *v
		out[k] = &c
	}
	return out
}

func run(pass *analysis.Pass) error {
	if analysis.Rel(pass.Path) == "internal/engine" {
		// The pool implementation itself manipulates raw sync.Pools.
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w := &walker{pass: pass}
				w.walkFunc(fd.Body)
			}
		}
	}
	return nil
}

type walker struct {
	pass *analysis.Pass
}

// walkFunc analyzes one function (or func literal) body with a fresh
// environment and applies the end-of-function leak check.
func (w *walker) walkFunc(body *ast.BlockStmt) {
	e := make(env)
	terminated := w.stmts(body.List, e)
	if !terminated {
		w.leakCheck(e, body.End())
	}
}

// --- recognition -----------------------------------------------------

// acquireCall reports whether call is a pool acquisition
// (ImagePool/VolumePool/BufPool Acquire or AcquireZeroed).
func (w *walker) acquireCall(call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(w.pass.TypesInfo, call)
	if fn == nil || (fn.Name() != "Acquire" && fn.Name() != "AcquireZeroed") {
		return false
	}
	pkg, typ, ok := analysis.ReceiverNamed(fn)
	if !ok || analysis.Rel(pkg) != "internal/engine" {
		return false
	}
	return typ == "ImagePool" || typ == "VolumePool" || typ == "BufPool"
}

// freshCall reports whether call constructs a fresh non-pooled buffer
// (volume.NewImage / volume.New) — a "foreign" buffer the pools must
// never be donated.
func (w *walker) freshCall(call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(w.pass.TypesInfo, call)
	if fn == nil || (fn.Name() != "NewImage" && fn.Name() != "New") {
		return false
	}
	return analysis.Rel(analysis.PkgPathOf(fn)) == "pkg/volume"
}

// releaseTarget returns the expression whose buffer a call releases:
// the argument of ImagePool/VolumePool.Release, or the receiver of
// Buf.Release. poolRelease is true for the pool-method form (the only
// form a foreign buffer can be donated through).
func (w *walker) releaseTarget(call *ast.CallExpr) (target ast.Expr, poolRelease, ok bool) {
	fn := analysis.CalleeFunc(w.pass.TypesInfo, call)
	if fn == nil || fn.Name() != "Release" {
		return nil, false, false
	}
	pkg, typ, isMethod := analysis.ReceiverNamed(fn)
	if !isMethod || analysis.Rel(pkg) != "internal/engine" {
		return nil, false, false
	}
	switch typ {
	case "ImagePool", "VolumePool":
		if len(call.Args) == 1 {
			return call.Args[0], true, true
		}
	case "Buf":
		if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
			return sel.X, false, true
		}
	}
	return nil, false, false
}

// trackedVar resolves e to a tracked local variable, unwrapping parens.
func trackedVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	if v == nil {
		v, _ = info.Defs[id].(*types.Var)
	}
	return v
}

// --- statement walk --------------------------------------------------

// stmts walks a statement list, returning whether it definitely
// terminates by leaving the function (return or panic). A break,
// continue or goto stops the walk of the remaining (unreachable)
// statements but does not count as termination: its state still flows to
// the code after the enclosing loop or switch.
func (w *walker) stmts(list []ast.Stmt, e env) bool {
	for _, s := range list {
		if _, isBranch := s.(*ast.BranchStmt); isBranch {
			return false
		}
		if w.stmt(s, e) {
			return true
		}
	}
	return false
}

func (w *walker) stmt(s ast.Stmt, e env) (terminated bool) {
	switch s := s.(type) {
	case nil:
	case *ast.AssignStmt:
		w.assign(s, e)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			w.call(call, e, false)
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		} else {
			w.uses(s.X, e)
		}
	case *ast.DeferStmt:
		if target, _, isRelease := w.releaseTarget(s.Call); isRelease {
			if v := trackedVar(w.pass.TypesInfo, target); v != nil {
				if vi, ok := e[v]; ok {
					vi.deferred = true
				}
				return false
			}
		}
		w.call(s.Call, e, false)
	case *ast.ReturnStmt:
		// Results (and any calls nested in them, like
		// `return nil, c.sendBuf(parent, tag, acc)`) hand ownership out.
		for _, r := range s.Results {
			w.expr(r, e, true)
		}
		w.leakCheck(e, s.Pos())
		return true
	case *ast.BranchStmt:
		// Handled by stmts; a lone branch statement terminates nothing.
	case *ast.IfStmt:
		w.stmt(s.Init, e)
		w.uses(s.Cond, e)
		thenEnv := e.clone()
		tThen := w.stmts(s.Body.List, thenEnv)
		if !tThen {
			w.scopeExit(e, thenEnv, s.Body)
		}
		elseEnv := e.clone()
		tElse := false
		if s.Else != nil {
			tElse = w.stmt(s.Else, elseEnv)
		}
		switch {
		case tThen && tElse:
			return true
		case tThen:
			replace(e, elseEnv)
		case tElse:
			replace(e, thenEnv)
		default:
			merge(e, thenEnv, elseEnv)
		}
	case *ast.BlockStmt:
		return w.stmts(s.List, e)
	case *ast.ForStmt:
		w.stmt(s.Init, e)
		w.uses(s.Cond, e)
		bodyEnv := e.clone()
		if !w.stmts(s.Body.List, bodyEnv) {
			if s.Post != nil {
				w.stmt(s.Post, bodyEnv)
			}
			w.scopeExit(e, bodyEnv, s.Body)
		}
		blur(e, bodyEnv)
	case *ast.RangeStmt:
		w.uses(s.X, e)
		bodyEnv := e.clone()
		if !w.stmts(s.Body.List, bodyEnv) {
			w.scopeExit(e, bodyEnv, s.Body)
		}
		blur(e, bodyEnv)
	case *ast.SwitchStmt:
		w.stmt(s.Init, e)
		w.uses(s.Tag, e)
		return w.caseBodies(s.Body, e)
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, e)
		return w.caseBodies(s.Body, e)
	case *ast.SelectStmt:
		return w.selectStmt(s, e)
	case *ast.SendStmt:
		w.uses(s.Chan, e)
		w.expr(s.Value, e, true)
	case *ast.GoStmt:
		w.call(s.Call, e, false)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, e)
	case *ast.IncDecStmt:
		w.uses(s.X, e)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						w.expr(val, e, true) // var x = b aliases the handle
					}
				}
			}
		}
	default:
		ast.Inspect(s, func(n ast.Node) bool {
			if exp, ok := n.(ast.Expr); ok {
				w.uses(exp, e)
				return false
			}
			return true
		})
	}
	return false
}

// caseBodies analyzes a switch body: each clause runs from a clone of
// the entry state; non-terminating outcomes merge together, plus the
// entry state itself when no clause might run (no default). It returns
// whether every reachable path leaves the function.
func (w *walker) caseBodies(body *ast.BlockStmt, e env) bool {
	entry := e.clone()
	var outs []env
	hasDefault := false
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, cond := range cc.List {
			w.uses(cond, entry)
		}
		ce := entry.clone()
		if !w.stmts(cc.Body, ce) {
			w.scopeExit(entry, ce, cc)
			outs = append(outs, ce)
		}
	}
	if !hasDefault {
		outs = append(outs, entry)
	}
	if len(outs) == 0 {
		return true
	}
	mergeAll(e, outs)
	return false
}

// selectStmt is caseBodies for select: exactly one comm clause runs.
func (w *walker) selectStmt(s *ast.SelectStmt, e env) bool {
	entry := e.clone()
	var outs []env
	sawClause := false
	for _, cl := range s.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		sawClause = true
		ce := entry.clone()
		if cc.Comm != nil {
			w.stmt(cc.Comm, ce)
		}
		if !w.stmts(cc.Body, ce) {
			w.scopeExit(entry, ce, cc)
			outs = append(outs, ce)
		}
	}
	if len(outs) == 0 {
		return sawClause
	}
	mergeAll(e, outs)
	return false
}

// scopeExit reports buffers acquired inside a nested scope (branch or
// loop body) that are still definitely owned when the scope ends: the
// handle is about to go out of scope with the buffer checked out. Only
// variables whose declaration lies inside the scope qualify — a
// function-level `var buf` assigned inside a branch survives it.
func (w *walker) scopeExit(parent, child env, scope ast.Node) {
	for v, vi := range child {
		if _, inParent := parent[v]; inParent {
			continue
		}
		if v.Pos() < scope.Pos() || v.Pos() >= scope.End() {
			continue
		}
		if vi.state == live && !vi.deferred {
			w.pass.Reportf(scope.End(), "%s acquired at %s goes out of scope without Release (pool leak)",
				v.Name(), w.pass.Fset.Position(vi.acquirePos))
		}
	}
}

// assign handles acquisitions, fresh buffers and reassignment.
func (w *walker) assign(s *ast.AssignStmt, e env) {
	for _, r := range s.Rhs {
		if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
			w.call(call, e, true)
		} else {
			w.expr(r, e, true) // copying the handle aliases it
		}
	}
	for _, l := range s.Lhs {
		if _, ok := ast.Unparen(l).(*ast.Ident); !ok {
			w.uses(l, e)
		}
	}
	if len(s.Lhs) != len(s.Rhs) {
		// Multi-value assignment from one call: results are not pool
		// acquisitions (Acquire returns one value).
		for _, l := range s.Lhs {
			if v := trackedVar(w.pass.TypesInfo, l); v != nil {
				delete(e, v)
			}
		}
		return
	}
	for i, l := range s.Lhs {
		v := trackedVar(w.pass.TypesInfo, l)
		if v == nil {
			continue
		}
		call, isCall := ast.Unparen(s.Rhs[i]).(*ast.CallExpr)
		switch {
		case isCall && w.acquireCall(call):
			e[v] = &vinfo{state: live, acquirePos: s.Rhs[i].Pos()}
		case isCall && w.freshCall(call):
			e[v] = &vinfo{state: foreign, acquirePos: s.Rhs[i].Pos()}
		default:
			// Reassigned from something we do not track.
			delete(e, v)
		}
	}
}

// call handles release recognition and ownership transfer through call
// arguments. inAssign suppresses the escape of acquire/fresh calls
// themselves (their result is bound by the caller).
func (w *walker) call(call *ast.CallExpr, e env, inAssign bool) {
	if target, poolRelease, isRelease := w.releaseTarget(call); isRelease {
		w.release(target, poolRelease, call.Pos(), e)
		return
	}
	if inAssign && (w.acquireCall(call) || w.freshCall(call)) {
		for _, a := range call.Args {
			w.uses(a, e)
		}
		return
	}
	w.uses(call.Fun, e)
	for _, a := range call.Args {
		w.expr(a, e, true) // passing the handle transfers ownership
	}
}

func (w *walker) release(target ast.Expr, poolRelease bool, pos token.Pos, e env) {
	v := trackedVar(w.pass.TypesInfo, target)
	if v == nil {
		w.uses(target, e) // complex target: still flag released reads in it
		return
	}
	vi, ok := e[v]
	if !ok {
		return
	}
	switch vi.state {
	case released:
		w.pass.Reportf(pos, "%s released again: already released at %s (double release would alias two future acquisitions)",
			v.Name(), w.pass.Fset.Position(vi.releasePos))
	case foreign:
		if poolRelease {
			w.pass.Reportf(pos, "%s was not acquired from the pool (constructed at %s): donating foreign buffers skews the in-use byte gauges",
				v.Name(), w.pass.Fset.Position(vi.acquirePos))
		}
		vi.state = escaped
	case live:
		if vi.deferred {
			w.pass.Reportf(pos, "%s released here and again by a deferred Release", v.Name())
		}
		vi.state = released
		vi.releasePos = pos
	case maybe, escaped:
		// Not provably wrong; stay silent.
	}
}

// expr walks an expression. Reads of definitely-released buffers are
// reported everywhere; when escape is true, a bare tracked identifier in
// a value position (call argument, composite-literal element, return
// value, channel send, alias) transfers ownership out of this function.
// Field and element reads (b.Data, img.Row(v)) keep ownership: only the
// handle itself moving counts.
func (w *walker) expr(e0 ast.Expr, e env, escape bool) {
	switch x := e0.(type) {
	case nil:
	case *ast.Ident:
		w.ident(x, e, escape)
	case *ast.ParenExpr:
		w.expr(x.X, e, escape)
	case *ast.SelectorExpr:
		w.expr(x.X, e, false)
	case *ast.IndexExpr:
		w.expr(x.X, e, false)
		w.expr(x.Index, e, false)
	case *ast.IndexListExpr:
		w.expr(x.X, e, false)
	case *ast.SliceExpr:
		w.expr(x.X, e, false)
		w.expr(x.Low, e, false)
		w.expr(x.High, e, false)
		w.expr(x.Max, e, false)
	case *ast.StarExpr:
		w.expr(x.X, e, false)
	case *ast.UnaryExpr:
		// &b aliases the handle; everything else is a read.
		w.expr(x.X, e, x.Op == token.AND)
	case *ast.BinaryExpr:
		w.expr(x.X, e, false)
		w.expr(x.Y, e, false)
	case *ast.CallExpr:
		w.call(x, e, false)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			w.expr(el, e, true)
		}
	case *ast.KeyValueExpr:
		w.expr(x.Key, e, false)
		w.expr(x.Value, e, escape)
	case *ast.TypeAssertExpr:
		w.expr(x.X, e, escape)
	case *ast.FuncLit:
		// Captured buffers escape to the closure; its body may release
		// or keep them on any schedule. The body itself is analyzed as
		// an independent function for its own acquisitions.
		w.captureEscapes(x, e)
		w.walkFunc(x.Body)
	}
}

func (w *walker) ident(id *ast.Ident, e env, escape bool) {
	v, _ := w.pass.TypesInfo.Uses[id].(*types.Var)
	if v == nil {
		return
	}
	vi, ok := e[v]
	if !ok {
		return
	}
	if vi.state == released {
		w.pass.Reportf(id.Pos(), "use of %s after Release at %s: the buffer may already belong to another goroutine",
			v.Name(), w.pass.Fset.Position(vi.releasePos))
	}
	if escape && (vi.state == live || vi.state == maybe) {
		vi.state = escaped
	}
}

// uses walks an expression in read-only position.
func (w *walker) uses(e0 ast.Expr, e env) { w.expr(e0, e, false) }

// captureEscapes marks every tracked variable referenced inside a func
// literal as escaped in the enclosing environment.
func (w *walker) captureEscapes(fl *ast.FuncLit, e env) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, _ := w.pass.TypesInfo.Uses[id].(*types.Var); v != nil {
				if vi, ok := e[v]; ok {
					vi.state = escaped
				}
			}
		}
		return true
	})
}

// leakCheck reports buffers that are definitely still owned (live, no
// deferred release) at a point where the function returns.
func (w *walker) leakCheck(e env, at token.Pos) {
	for v, vi := range e {
		if vi.state == live && !vi.deferred {
			w.pass.Reportf(at, "%s acquired at %s is not released on this return path (pool leak: the working set grows until GC)",
				v.Name(), w.pass.Fset.Position(vi.acquirePos))
		}
	}
}

// --- merges ----------------------------------------------------------

// replace copies src into dst in place.
func replace(dst, src env) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// merge folds two branch outcomes into dst: agreeing states survive,
// disagreements degrade to maybe (escaped wins over everything — the
// buffer may be gone).
func merge(dst, a, b env) {
	replace(dst, a)
	mergeAll(dst, []env{a, b})
}

// mergeAll folds any number of branch outcomes into dst.
func mergeAll(dst env, outs []env) {
	if len(outs) == 0 {
		return
	}
	keys := make(map[*types.Var]bool)
	for _, o := range outs {
		for k := range o {
			keys[k] = true
		}
	}
	for k := range dst {
		keys[k] = true
	}
	result := make(env)
	for k := range keys {
		var combined *vinfo
		consistent := true
		for _, o := range outs {
			vi, ok := o[k]
			if !ok {
				consistent = false
				break
			}
			if combined == nil {
				c := *vi
				combined = &c
				continue
			}
			if combined.state != vi.state {
				if combined.state == escaped || vi.state == escaped {
					combined.state = escaped
				} else {
					combined.state = maybe
				}
			}
			combined.deferred = combined.deferred || vi.deferred
		}
		if !consistent || combined == nil {
			continue
		}
		result[k] = combined
	}
	replace(dst, result)
}

// blur folds a loop body's effects back conservatively: any variable
// whose state the body changed degrades to maybe; variables untouched by
// the body keep their entry state.
func blur(entry, body env) {
	for k, vi := range entry {
		b, ok := body[k]
		if !ok {
			delete(entry, k)
			continue
		}
		if b.state != vi.state {
			if b.state == escaped {
				vi.state = escaped
			} else {
				vi.state = maybe
			}
		}
		vi.deferred = vi.deferred || b.deferred
	}
	for k, b := range body {
		if _, ok := entry[k]; !ok && b.state == live {
			// Acquired inside the loop and leaked past its end: keep
			// tracking as maybe (a per-iteration acquire that is
			// released per-iteration never reaches here live).
			c := *b
			c.state = maybe
			entry[k] = &c
		}
	}
}
