package ci

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// v1Path is a /v1/... path as the README's code writes it: literal
// segments, {wildcards} or <placeholders>, ending at the first character no
// segment holds (a space, a quote, a query string).
var v1Path = regexp.MustCompile(`/v1(?:/[\w{}<>-]+)+`)

// routerOwn is the one route the router serves that no daemon does.
const routerOwn = "GET /v1/backends"

// routes returns the patterns a Go file registers: the string-literal first
// argument of every HandleFunc and Handle call, in source order.
func routes(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || (sel.Sel.Name != "HandleFunc" && sel.Sel.Name != "Handle") {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if p, err := strconv.Unquote(lit.Value); err == nil {
				out = append(out, p)
			}
		}
		return true
	})
	return out
}

// matches reports whether a concrete or templated path fits a pattern's
// path: segment for segment, a {wildcard} taking any one segment.
func matches(pattern, path string) bool {
	_, pp, _ := strings.Cut(pattern, " ")
	want, got := strings.Split(pp, "/"), strings.Split(path, "/")
	if len(want) != len(got) {
		return false
	}
	for i, w := range want {
		if w != got[i] && !(strings.HasPrefix(w, "{") && strings.HasSuffix(w, "}")) {
			return false
		}
	}
	return true
}

// routeProblems is the check: the router registers exactly the daemon's
// routes plus routerOwn, and every /v1/... path in the README's code is
// served — by a daemon route, or by routerOwn.
func routeProblems(daemon, router []string, readme string) []string {
	var problems []string
	want := append(slices.Clone(daemon), routerOwn)
	for _, p := range want {
		if !slices.Contains(router, p) {
			problems = append(problems, "router does not register "+p)
		}
	}
	for _, p := range router {
		if !slices.Contains(want, p) {
			problems = append(problems, "router registers "+p+", which no daemon serves")
		}
	}
	for _, path := range v1Path.FindAllString(readmeCode(readme), -1) {
		if !slices.ContainsFunc(want, func(p string) bool { return matches(p, path) }) {
			problems = append(problems, "README.md: "+path+" matches no route")
		}
	}
	slices.Sort(problems)
	return slices.Compact(problems)
}

// TestRoutesAgree fails when the router and the daemon disagree on the API
// surface, or when the README's code names a /v1 path nothing serves.
func TestRoutesAgree(t *testing.T) {
	daemon := routes(t, "../internal/service/server.go")
	router := routes(t, "../internal/router/router.go")
	if !slices.Contains(daemon, "GET /v1/jobs/{id}/stream") {
		t.Fatalf("no /stream route read from the daemon: %q", daemon)
	}
	readme, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range routeProblems(daemon, router, string(readme)) {
		t.Error(p)
	}
}

// The check itself: a route on one side only is reported from either side,
// and so is a README path that no route serves, in a fenced block or a code
// span; wildcards, placeholders, query strings and prose are not.
func TestRouteProblemsCaught(t *testing.T) {
	daemon := []string{"GET /v1/jobs/{id}", "GET /v1/jobs/{id}/stream", "GET /healthz"}
	router := append(slices.Clone(daemon), routerOwn)
	for _, tc := range []struct {
		name           string
		daemon, router []string
		readme, want   string
	}{
		{"agree", daemon, router, "```\ncurl -s localhost:8080/v1/jobs/j00000001/stream?after=3\ncurl …/v1/backends\n```\n`/v1/jobs/<id>` and /v1/jobs/x/preview in prose", ""},
		{"daemon only", daemon, slices.Delete(slices.Clone(router), 1, 2), "", "router does not register GET /v1/jobs/{id}/stream"},
		{"router only", daemon[1:], router, "", "router registers GET /v1/jobs/{id}, which no daemon serves"},
		{"README fenced", daemon, router, "```\ncurl -s localhost:8080/v1/jobs/j00000001/preview -o p.mime\n```", "README.md: /v1/jobs/j00000001/preview matches no route"},
		{"README span", daemon, router, "`GET /v1/jobs/{id}/preview`", "README.md: /v1/jobs/{id}/preview matches no route"},
	} {
		if got := strings.Join(routeProblems(tc.daemon, tc.router, tc.readme), "; "); got != tc.want {
			t.Errorf("%s: problems %q, want %q", tc.name, got, tc.want)
		}
	}
}
