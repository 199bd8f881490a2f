package ci

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"unicode"
)

var (
	fenced    = regexp.MustCompile("(?s)```.*?```")
	codeSpan  = regexp.MustCompile("`[^`\n]+`")
	qualified = regexp.MustCompile(`(?:^|[^\w./])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`)
)

// decls is what the module declares: the top-level identifiers of each
// package name (a name shared by several packages holds all of theirs, a
// _test package counts as the package it tests), the methods and fields of
// each type name, and those of each package's types, which docs name as
// pkg.Method too (volume.TransposeInto for (*volume.Image).TransposeInto).
type decls struct {
	pkgs, members, pkgMembers map[string]map[string]bool
}

// declared parses every Go file of the module under root, test files
// included; the nested benchmark module, testdata and dot directories are
// not part of it.
func declared(root string) (decls, map[string]string, error) {
	d := decls{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}, pkgMembers: map[string]map[string]bool{}}
	docs := map[string]string{} // file → package doc comment
	add := func(m map[string]map[string]bool, k, v string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][v] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name := e.Name(); path != root && (name == "benchmark" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if f.Doc != nil {
			docs[path] = f.Doc.Text()
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(d.pkgs, pkg, decl.Name.Name)
				} else if recv := typeName(decl.Recv.List[0].Type); recv != "" {
					add(d.members, recv, decl.Name.Name)
					add(d.pkgMembers, pkg, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(d.pkgs, pkg, spec.Name.Name)
						for _, name := range memberNames(spec.Type) {
							add(d.members, spec.Name.Name, name)
							add(d.pkgMembers, pkg, name)
						}
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(d.pkgs, pkg, name.Name)
						}
					}
				}
			}
		}
		return nil
	})
	delete(d.pkgs, "main")
	return d, docs, err
}

// typeName is the type a receiver or embedded field names: T, *T, T[P].
func typeName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// memberNames lists a struct's fields (embedded ones by type name) or an
// interface's methods.
func memberNames(x ast.Expr) []string {
	var list *ast.FieldList
	switch x := x.(type) {
	case *ast.StructType:
		list = x.Fields
	case *ast.InterfaceType:
		list = x.Methods
	default:
		return nil
	}
	var out []string
	for _, field := range list.List {
		for _, name := range field.Names {
			out = append(out, name.Name)
		}
		if len(field.Names) == 0 {
			out = append(out, typeName(field.Type))
		}
	}
	return out
}

// stale returns each qualified name in text that names a module package
// (pkg.Name, pkg.Method, pkg.Type.Member) or a module type (Type.Member)
// but nothing either declares. A name with no upper-case letter is not taken for an
// identifier: such dotted words are metric, span and file names
// (filter.apply_s, filter.round, filter.go).
func (d decls) stale(text string) []string {
	var out []string
	for _, m := range qualified.FindAllStringSubmatch(text, -1) {
		parts := strings.Split(m[1], ".")
		owner, rest := parts[0], parts[1:]
		if ids, ok := d.pkgs[owner]; ok {
			if !identifier(rest[0]) {
				continue
			}
			if !ids[rest[0]] {
				if !d.pkgMembers[owner][rest[0]] {
					out = append(out, m[1])
				}
				continue
			}
			owner, rest = rest[0], rest[1:]
		}
		if len(rest) == 0 || !identifier(rest[0]) {
			continue
		}
		if members, ok := d.members[owner]; ok && !members[rest[0]] {
			out = append(out, m[1])
		}
	}
	return out
}

func identifier(name string) bool { return strings.ContainsFunc(name, unicode.IsUpper) }

// readmeCode is the code of a Markdown file: its fenced blocks and its
// inline code spans.
func readmeCode(md string) string {
	blocks := fenced.FindAllString(md, -1)
	return strings.Join(append(blocks, codeSpan.FindAllString(fenced.ReplaceAllString(md, ""), -1)...), "\n")
}

// TestDocsNameDeclaredIdentifiers fails on a qualified Go name in the root
// README's code or in a package doc comment that names a module package or
// type but no identifier the module declares: a doc still pointing at a
// deleted or renamed symbol. CHANGES.md and ROADMAP.md are history and are
// not checked.
func TestDocsNameDeclaredIdentifiers(t *testing.T) {
	d, docs, err := declared("..")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatal(err)
	}
	docs["README.md"] = readmeCode(string(readme))
	var problems []string
	for file, text := range docs {
		for _, name := range d.stale(text) {
			problems = append(problems, fmt.Sprintf("%s: %s names nothing the module declares", file, name))
		}
	}
	sort.Strings(problems)
	for _, p := range slices.Compact(problems) {
		t.Error(p)
	}
}

// The check itself: a deleted function, method and field are each reported;
// live names, names of other packages and dotted metric names are not.
func TestStaleNamesCaught(t *testing.T) {
	d := decls{
		pkgs:       map[string]map[string]bool{"filter": {"Filterer": true, "New": true}},
		members:    map[string]map[string]bool{"Filterer": {"ApplyEncoded": true, "g": true}},
		pkgMembers: map[string]map[string]bool{"filter": {"ApplyEncoded": true, "g": true}},
	}
	for text, want := range map[string]string{
		"`filter.New(g, win)`":             "",
		"filter.Filterer.ApplyEncoded":     "",
		"filter.ApplyEncoded":              "",
		"Filterer.ApplyEncoded, flt.Apply": "",
		"filter.apply_s and filter.round":  "",
		"`ctx.Err` and os.Exit":            "",
		"ifdk/internal/ct/filter.Apply":    "",
		"filter.Apply(e)":                  "filter.Apply",
		"`Filterer.Apply`":                 "Filterer.Apply",
		"filter.Filterer.Sweep":            "filter.Filterer.Sweep",
		"filter.filterPair":                "filter.filterPair",
	} {
		if got := strings.Join(d.stale(text), ","); got != want {
			t.Errorf("%q: stale %q, want %q", text, got, want)
		}
	}
}
