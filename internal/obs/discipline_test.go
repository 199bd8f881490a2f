package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// parseDirs parses the non-test Go files of each directory.
func parseDirs(t *testing.T, fset *token.FileSet, dirs ...string) []*ast.File {
	t.Helper()
	var files []*ast.File
	for _, dir := range dirs {
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
			files = append(files, f)
		}
	}
	return files
}

// The daemons, the service and the router log only through a logger from
// NewLogger, so every record carries its component and node: no stdout
// printing, no logger built or installed by hand, no package-level slog
// calls, and every key/value argument list pairs a literal key (or a
// slog.Attr) with a value.
func TestLoggingDiscipline(t *testing.T) {
	kvFrom := map[string]int{"Debug": 1, "Info": 1, "Warn": 1, "Error": 1,
		"DebugContext": 2, "InfoContext": 2, "WarnContext": 2, "ErrorContext": 2}
	banned := map[string]map[string]bool{
		"fmt": {"Print": true, "Printf": true, "Println": true},
		"log": {"Print": true, "Printf": true, "Println": true, "Fatal": true, "Fatalf": true,
			"Fatalln": true, "Panic": true, "Panicf": true, "Panicln": true},
		// Outside obs: loggers built or installed by hand, and the default logger.
		"log/slog": {"New": true, "Default": true, "SetDefault": true, "NewTextHandler": true, "NewJSONHandler": true},
	}
	for name := range kvFrom {
		banned["log/slog"][name] = true
	}
	fset := token.NewFileSet()
	for _, f := range parseDirs(t, fset, ".", "../service", "../router", "../../cmd/ifdkd", "../../cmd/ifdk-router") {
		inObs := f.Name.Name == "obs"
		imports := map[string]string{} // local name → import path
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			at := fset.Position(call.Pos())
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "print" || fun.Name == "println" {
					t.Errorf("%s: builtin %s: log through the obs logger", at, fun.Name)
				}
			case *ast.SelectorExpr:
				switch path := imports[exprName(fun.X)]; {
				case path != "":
					if banned[path][fun.Sel.Name] && !(inObs && path == "log/slog") {
						t.Errorf("%s: %s.%s: log through a logger from obs.NewLogger", at, path, fun.Sel.Name)
					}
				case kvFrom[fun.Sel.Name] > 0 && !call.Ellipsis.IsValid():
					for i := kvFrom[fun.Sel.Name]; i < len(call.Args); i += 2 {
						key := call.Args[i]
						if c, ok := key.(*ast.CallExpr); ok {
							if s, ok := c.Fun.(*ast.SelectorExpr); ok && imports[exprName(s.X)] == "log/slog" {
								i-- // a slog.Attr is a whole pair
								continue
							}
						}
						if lit, ok := key.(*ast.BasicLit); !ok || lit.Kind != token.STRING {
							t.Errorf("%s: %s key must be a string literal or a slog.Attr", fset.Position(key.Pos()), fun.Sel.Name)
						} else if i+1 == len(call.Args) {
							t.Errorf("%s: %s key %s has no value", fset.Position(key.Pos()), fun.Sel.Name, lit.Value)
						}
					}
				}
			}
			return true
		})
	}
}

func exprName(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// Metric and label names at every registration site are string literals: a
// computed name cannot be audited for duplicates or dashboard use. Registry
// checks their legality and uniqueness as the registry is built.
func TestMetricNamesAreLiterals(t *testing.T) {
	labelsFrom := map[string]int{"Counter": -1, "Gauge": -1, "Histogram": -1, "GaugeFunc": -1,
		"CounterFunc": -1, "CounterVec": 2, "GaugeVec": 2, "HistogramVec": 3, "SampleFunc": 3}
	fset := token.NewFileSet()
	for _, name := range []string{"../service/prom.go", "../router/obs.go"} {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			from, isReg := labelsFrom[sel.Sel.Name]
			if !isReg {
				return true
			}
			names := []ast.Expr{call.Args[0]}
			if from >= 0 && from < len(call.Args) {
				if lit, ok := call.Args[from].(*ast.CompositeLit); ok {
					names = append(names, lit.Elts...)
				} else {
					names = append(names, call.Args[from:]...)
				}
			}
			for _, e := range names {
				if lit, ok := e.(*ast.BasicLit); !ok || lit.Kind != token.STRING {
					t.Errorf("%s: %s name must be a string literal", fset.Position(e.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
}
