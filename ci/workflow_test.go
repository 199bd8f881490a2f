// Package ci holds the checks on the repository's own text: the one that
// keeps .github/workflows/ci.yml and ci/run.sh in step — the workflow
// cannot be run here, so its shape is checked as text: no YAML library is a
// dependency of this module — and the one that keeps the README's and the
// package docs' Go names pointing at declared identifiers (docs_test.go).
package ci

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	scriptStep = regexp.MustCompile(`(?m)^([a-z0-9-]+)\)$`)
	nameLine   = regexp.MustCompile(`^\s*(?:- )?name:\s*(.*)$`)
	runLine    = regexp.MustCompile(`^\s*(?:- )?run:\s*(.*)$`)
	runStep    = regexp.MustCompile(`^ci/run\.sh ([a-z0-9-]+)$`)
)

// checkWorkflow returns what is wrong with a workflow file against the
// step script: a name: value that is neither colon-free nor quoted (YAML
// reads an unquoted ": " as a nested mapping and rejects the file), a run:
// that is not `ci/run.sh <step>` of a step the script defines, and a step
// of the script that no run: uses (offline, which runs the others, aside).
func checkWorkflow(workflow, script string) []string {
	defined := map[string]bool{}
	for _, m := range scriptStep.FindAllStringSubmatch(script, -1) {
		defined[m[1]] = true
	}
	var problems []string
	used := map[string]bool{}
	for i, line := range strings.Split(workflow, "\n") {
		if m := nameLine.FindStringSubmatch(line); m != nil {
			v := strings.TrimSpace(m[1])
			if quoted := strings.HasPrefix(v, `"`) || strings.HasPrefix(v, `'`); !quoted && strings.Contains(v, ":") {
				problems = append(problems, fmt.Sprintf("line %d: name %q has an unquoted colon", i+1, v))
			}
		}
		if m := runLine.FindStringSubmatch(line); m != nil {
			s := runStep.FindStringSubmatch(strings.TrimSpace(m[1]))
			switch {
			case s == nil:
				problems = append(problems, fmt.Sprintf("line %d: run %q is not `ci/run.sh <step>`", i+1, m[1]))
			case !defined[s[1]]:
				problems = append(problems, fmt.Sprintf("line %d: ci/run.sh defines no step %q", i+1, s[1]))
			default:
				used[s[1]] = true
			}
		}
	}
	for step := range defined {
		if !used[step] && step != "offline" {
			problems = append(problems, fmt.Sprintf("step %q of ci/run.sh is in no workflow run", step))
		}
	}
	return problems
}

func TestWorkflowMatchesScript(t *testing.T) {
	workflow, err := os.ReadFile("../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile("run.sh")
	if err != nil {
		t.Fatal(err)
	}
	if !scriptStep.Match(script) {
		t.Fatal("ci/run.sh defines no steps")
	}
	for _, p := range checkWorkflow(string(workflow), string(script)) {
		t.Error(p)
	}
}

// The check itself: each kind of break it exists for must be reported,
// the first as it once kept the workflow from parsing.
func TestCheckWorkflowCatches(t *testing.T) {
	const script = "case \"$1\" in\nvet)\n\tgo vet ./...\n\t;;\ntest)\n\tgo test ./...\n\t;;\noffline)\n\t;;\nesac\n"
	for _, c := range []struct{ name, workflow, want string }{
		{"unquoted colon", "      - name: kernel tiers (ref / portable / AVX2 parity: both back-projection consumers)\n        run: ci/run.sh vet\n      - name: test\n        run: ci/run.sh test\n", "unquoted colon"},
		{"inline commands", "      - name: vet\n        run: |\n          go vet ./...\n      - name: test\n        run: ci/run.sh test\n", "is not `ci/run.sh <step>`"},
		{"unknown step", "      - name: vet\n        run: ci/run.sh vet\n      - name: test\n        run: ci/run.sh tests\n", "defines no step"},
		{"unused step", "      - name: vet\n        run: ci/run.sh vet\n", `step "test" of ci/run.sh is in no workflow run`},
		{"clean", "      - name: 'vet: quoted'\n        run: ci/run.sh vet\n      - name: test\n        run: ci/run.sh test\n", ""},
	} {
		problems := strings.Join(checkWorkflow(c.workflow, script), "\n")
		if c.want == "" && problems != "" || !strings.Contains(problems, c.want) {
			t.Errorf("%s: problems %q, want one containing %q", c.name, problems, c.want)
		}
	}
}
