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
	"strconv"
	"strings"
	"testing"
	"unicode"
)

var (
	fenced    = regexp.MustCompile("(?s)```.*?```")
	codeSpan  = regexp.MustCompile("`[^`\n]+`")
	qualified = regexp.MustCompile(`(?:^|[^\w./])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`)
	definer   = regexp.MustCompile(`^(?:(?:Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(?:Var)?|Func|BoolFunc|Var|TextVar)$`)
	flagArg   = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(?:=|$)`)
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

// flagDefs maps each cmd/<bin> under root to the flags its main.go defines
// (the name argument of every flag.Bool, flag.IntVar, … call) and to its
// package doc.
func flagDefs(root string) (map[string]map[string]bool, map[string]string, error) {
	dirs, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		return nil, nil, err
	}
	defs, docs := map[string]map[string]bool{}, map[string]string{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		f, err := parser.ParseFile(fset, filepath.Join(root, "cmd", dir.Name(), "main.go"), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		docs[dir.Name()] = f.Doc.Text()
		names := map[string]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !definer.MatchString(sel.Sel.Name) {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			arg := 0 // flag.Int("name", …); flag.IntVar(&v, "name", …)
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1
			}
			if arg < len(call.Args) {
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					names[name] = true
				}
			}
			return true
		})
		defs[dir.Name()] = names
	}
	return defs, docs, nil
}

// undefinedFlags returns "<bin> -flag" for each flag a command line of
// text passes to a binary that does not define it. A command line starts
// with `go run ./cmd/<bin>` or with <bin> itself; lines ending in a
// backslash continue it, and a shell operator or comment ends its
// arguments.
func undefinedFlags(text string, defs map[string]map[string]bool) []string {
	var out []string
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		for strings.HasSuffix(strings.TrimSpace(line), "\\") && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(strings.TrimSpace(line), "\\") + " " + lines[i]
		}
		fields := strings.Fields(line)
		var bin string
		switch {
		case len(fields) >= 3 && fields[0] == "go" && fields[1] == "run" && strings.HasPrefix(fields[2], "./cmd/"):
			bin, fields = strings.TrimSuffix(strings.TrimPrefix(fields[2], "./cmd/"), "/"), fields[3:]
		case len(fields) > 0 && defs[fields[0]] != nil:
			bin, fields = fields[0], fields[1:]
		default:
			continue
		}
		for _, f := range fields {
			if strings.ContainsAny(f[:1], "|&;#<>") || strings.HasPrefix(f, "2>") {
				break
			}
			if m := flagArg.FindStringSubmatch(f); m != nil && !defs[bin][m[1]] {
				out = append(out, bin+" -"+m[1])
			}
		}
	}
	return out
}

// TestDocsNameDefinedFlags fails when a fenced command in the root README
// (go run ./cmd/<bin> …) or a usage line in a cmd package doc passes a
// flag that cmd/<bin>/main.go does not define: a doc still showing a
// retired flag. Prose code spans are not checked, since they name retired
// flags on purpose.
func TestDocsNameDefinedFlags(t *testing.T) {
	defs, docs, err := flagDefs("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(defs["ifdkd"]) == 0 {
		t.Fatal("no flag definitions read from cmd/ifdkd")
	}
	readme, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var problems []string
	for _, f := range undefinedFlags(strings.Join(fenced.FindAllString(string(readme), -1), "\n"), defs) {
		problems = append(problems, "README.md: "+f+" is not defined")
	}
	for bin, doc := range docs {
		for _, f := range undefinedFlags(doc, defs) {
			problems = append(problems, "cmd/"+bin+": "+f+" is not defined")
		}
	}
	sort.Strings(problems)
	for _, p := range slices.Compact(problems) {
		t.Error(p)
	}
}

// The check itself: an undefined flag is reported, in either form of
// command and past a continuation line; defined flags, flag values, prose
// and what follows a shell operator or comment are not.
func TestUndefinedFlagsCaught(t *testing.T) {
	defs := map[string]map[string]bool{"ifdkd": {"addr": true, "node": true}, "ifdk-load": {"jobs": true}}
	for text, want := range map[string]string{
		"go run ./cmd/ifdkd -addr :8081 -node b0 &":               "",
		"go run ./cmd/ifdkd -addr=:8081 --node=b0":                "",
		"go run ./cmd/ifdkd -abci":                                "ifdkd -abci",
		"ifdkd -addr :8081 \\\n      -abci -node b0":              "ifdkd -abci",
		"go run ./cmd/ifdk-load -jobs 4   # no -addr: in-process": "",
		"go run ./cmd/ifdk-load -jobs 4 | grep -v x":              "",
		"go run ./cmd/ifdk-load -addr http://x -jobs 4":           "ifdk-load -addr",
		"run ifdkd with -abci to model the testbed":               "",
		"curl -s -X POST localhost:8080/v1/jobs -d '{}'":          "",
	} {
		if got := strings.Join(undefinedFlags(text, defs), ","); got != want {
			t.Errorf("%q: undefined %q, want %q", text, got, want)
		}
	}
}
