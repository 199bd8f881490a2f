package service

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Every function in journal.go that writes — the append path, compaction —
// fsyncs after its last write (a rename counts: appends go to the renamed
// file), and no Sync error is dropped: a failed fsync must fail the append,
// not ack it.
func TestJournalSyncsBeforeAck(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "journal.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	method := func(e ast.Expr) string {
		if call, ok := e.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				return sel.Sel.Name
			}
		}
		return ""
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		var lastWrite, lastSync token.Pos
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			var dropped ast.Expr
			switch n := n.(type) {
			case *ast.ExprStmt:
				dropped = n.X
			case *ast.AssignStmt:
				if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name == "_" && len(n.Lhs) == 1 {
					dropped = n.Rhs[0]
				}
			}
			if method(dropped) == "Sync" {
				t.Errorf("%s: %s drops a Sync error", fset.Position(n.Pos()), fd.Name.Name)
			}
			e, _ := n.(ast.Expr)
			switch method(e) {
			case "Sync":
				lastSync = n.Pos()
			case "Write", "WriteString", "WriteAt", "Encode", "Rename":
				lastWrite = n.Pos()
			}
			return true
		})
		if lastWrite > lastSync {
			t.Errorf("%s: %s returns with no Sync after this write", fset.Position(lastWrite), fd.Name.Name)
		}
	}
}

// In the packages on blocking paths an exported function that blocks — a
// channel operation, a select without default, time.Sleep, a Wait — takes
// a context.Context, unless an "//ifdk:noctx <reason>" directive waives it;
// and a blocking select inside a loop has a case that can end the wait:
// ctx.Done(), a shutdown channel or a timer.
func TestBlockingTakesContext(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../router", "../hpc/mpi", "../../pkg/client"} {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(names) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					checkBlocking(t, fset, fd)
				}
			}
		}
	}
}

func checkBlocking(t *testing.T, fset *token.FileSet, fd *ast.FuncDecl) {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if reason, ok := strings.CutPrefix(c.Text, "//ifdk:noctx"); ok {
				if strings.TrimSpace(reason) == "" {
					t.Errorf("%s: //ifdk:noctx on %s needs a reason", fset.Position(c.Pos()), fd.Name.Name)
				}
				return
			}
		}
	}
	if fd.Name.IsExported() && !takesContext(fd) {
		if pos := firstBlockingOp(fd.Body); pos.IsValid() {
			t.Errorf("%s: exported %s blocks at %s but takes no context.Context; thread one or waive with //ifdk:noctx <reason>",
				fset.Position(fd.Pos()), fd.Name.Name, fset.Position(pos))
		}
	}
	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.ForStmt:
				walk(m.Body, true)
				return false
			case *ast.RangeStmt:
				walk(m.Body, true)
				return false
			case *ast.FuncLit:
				walk(m.Body, false)
				return false
			case *ast.SelectStmt:
				if inLoop && !hasDefault(m) && !hasEscapeCase(m) {
					t.Errorf("%s: select inside a loop in %s has no case that ends the wait: add ctx.Done(), a shutdown channel or a timer",
						fset.Position(m.Pos()), fd.Name.Name)
				}
			}
			return true
		})
	}
	walk(fd.Body, false)
}

func takesContext(fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		if sel, ok := field.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Context" {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "context" {
				return true
			}
		}
	}
	return false
}

// firstBlockingOp returns the position of the first operation in n that can
// park the calling goroutine. It does not descend into func literals (they
// block on the goroutine that runs them). The comm clauses of a select with
// a default cannot block; their bodies still can.
func firstBlockingOp(n ast.Node) token.Pos {
	var pos token.Pos
	ast.Inspect(n, func(m ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			if !hasDefault(m) {
				pos = m.Pos()
				return false
			}
			for _, c := range m.Body.List {
				for _, st := range c.(*ast.CommClause).Body {
					if p := firstBlockingOp(st); p.IsValid() && !pos.IsValid() {
						pos = p
					}
				}
			}
			return false
		case *ast.SendStmt:
			pos = m.Pos()
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				pos = m.Pos()
			}
		case *ast.CallExpr:
			if sel, ok := m.Fun.(*ast.SelectorExpr); ok {
				x, _ := sel.X.(*ast.Ident)
				if sel.Sel.Name == "Wait" || sel.Sel.Name == "Sleep" && x != nil && x.Name == "time" {
					pos = m.Pos()
				}
			}
		}
		return !pos.IsValid()
	})
	return pos
}

func hasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// escapeName matches the names of channels, and of methods returning them,
// that signal shutdown, completion or the passage of time.
var escapeName = regexp.MustCompile(`(?i)(done|close|quit|stop|abort|exit|term|cancel|shutdown|dying|dead|fail|^after$|^tick$)`)

// hasEscapeCase reports whether a comm case of sel receives from such a
// channel: ctx.Done(), time.After(d), ticker.C, a stop or closed field.
func hasEscapeCase(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		var recv ast.Expr
		switch comm := c.(*ast.CommClause).Comm.(type) {
		case *ast.ExprStmt:
			recv = comm.X
		case *ast.AssignStmt:
			recv = comm.Rhs[0]
		}
		u, ok := recv.(*ast.UnaryExpr)
		if !ok || u.Op != token.ARROW {
			continue
		}
		ch := u.X
		if call, ok := ch.(*ast.CallExpr); ok {
			ch = call.Fun
		}
		switch ch := ch.(type) {
		case *ast.SelectorExpr:
			if ch.Sel.Name == "C" || escapeName.MatchString(ch.Sel.Name) {
				return true
			}
		case *ast.Ident:
			if escapeName.MatchString(ch.Name) {
				return true
			}
		}
	}
	return false
}
