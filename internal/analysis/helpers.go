package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// Rel strips the module prefix and any testdata prefix from an import
// path, yielding the module-relative package path scope rules match on.
// "ifdk/internal/service" and
// "ifdk/internal/analysis/slogcheck/testdata/src/internal/service" both
// reduce to "internal/service", so analysistest fixtures land in the same
// scopes as the real packages they mirror.
func Rel(importPath string) string {
	if i := strings.LastIndex(importPath, "/testdata/src/"); i >= 0 {
		return importPath[i+len("/testdata/src/"):]
	}
	if i := strings.Index(importPath, "/"); i >= 0 {
		return importPath[i+1:]
	}
	return importPath
}

// InScope reports whether the package with the given import path falls
// under any of the module-relative scope prefixes ("internal/service"
// covers internal/service and internal/service/progressive).
func InScope(importPath string, scopes []string) bool {
	rel := Rel(importPath)
	for _, s := range scopes {
		if rel == s || strings.HasPrefix(rel, s+"/") {
			return true
		}
	}
	return false
}

// HasAnnotation reports whether the doc comment contains a line whose
// directive part is exactly "//ifdk:<name>" or starts with
// "//ifdk:<name> " (trailing free text is the annotation's argument).
func HasAnnotation(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	want := "//ifdk:" + name
	for _, c := range doc.List {
		if c.Text == want || strings.HasPrefix(c.Text, want+" ") {
			return true
		}
	}
	return false
}

// ConstString returns the compile-time string value of e, if it has one.
func ConstString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// CalleeFunc resolves the called function or method object of a call
// expression, or nil for builtins, type conversions and indirect calls.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			id = x
		}
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// PkgPathOf returns the import path of the package an object belongs to,
// or "" for builtins and universe-scope objects.
func PkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// FromPkg reports whether obj is declared in a package whose
// module-relative path equals rel — "internal/engine", "log/slog" (std
// paths have no module prefix and compare whole).
func FromPkg(obj types.Object, rel string) bool {
	p := PkgPathOf(obj)
	return p == rel || Rel(p) == rel
}

// ReceiverNamed returns the name of the method's receiver base type and
// the import path of its package, unwrapping pointers and generic
// instantiations. ok is false for non-methods.
func ReceiverNamed(fn *types.Func) (pkgPath, typeName string, ok bool) {
	if fn == nil {
		return "", "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", "", false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	return PkgPathOf(obj), obj.Name(), true
}

// IsContext reports whether t is context.Context.
func IsContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && PkgPathOf(obj) == "context"
}
