package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sgprs/internal/lint"
)

// runFixture is the fixture harness for the determinism suite — the
// analysistest idiom on the stdlib-only framework. A fixture is a directory
// of Go files under testdata/src/<pkg>; expected findings are trailing
// comments of the form
//
//	x += v[k] // want "accumulates into float"
//
// where each quoted string is a regular expression that must match a
// diagnostic reported on that line. The harness fails on unexpected
// diagnostics and on expectations nothing matched — so deleting an
// analyzer's check makes its fixture test fail, which is the anti-vacuity
// property CI leans on.
//
// It loads testdata/src/<pkg> (pkg doubles as the fixture's import path, so
// a fixture named "gpu" is bound by the simulation-package rules and one
// named "outside" is not), runs the given analyzers plus the allow layer,
// and compares against the fixture's want expectations.
func runFixture(t *testing.T, testdata, pkg string, analyzers ...*lint.Analyzer) {
	t.Helper()
	diags := fixtureDiagnostics(t, testdata, pkg, analyzers...)
	checkWants(t, filepath.Join(testdata, "src", pkg), diags)
}

// fixtureDiagnostics loads and lints the fixture, returning the surviving
// diagnostics without checking want expectations — for driver-level tests
// that assert on the diagnostics themselves.
func fixtureDiagnostics(t *testing.T, testdata, pkg string, analyzers ...*lint.Analyzer) []lint.Diagnostic {
	t.Helper()
	dir := filepath.Join(testdata, "src", pkg)
	p, err := lint.LoadFixture(dir, pkg)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := lint.Run([]*lint.Package{p}, analyzers)
	if err != nil {
		t.Fatalf("linting fixture %s: %v", dir, err)
	}
	return diags
}

// wantRE extracts the quoted expectations of a want comment — double-quoted
// or backquoted, the latter convenient for regexps with escapes.
var wantRE = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// expectation is one want clause, keyed by file and line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// checkWants parses `// want "re"...` comments from every fixture file and
// reconciles them with the reported diagnostics.
func checkWants(t *testing.T, dir string, diags []lint.Diagnostic) {
	t.Helper()
	expects, err := parseWants(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		hit := false
		for _, e := range expects {
			if !e.matched && sameFile(e.file, d.Pos.Filename) && e.line == d.Pos.Line && e.re.MatchString(d.Message) {
				e.matched = true
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", e.file, e.line, e.re)
		}
	}
}

// parseWants scans fixture sources line by line; want comments always sit on
// the line they describe.
func parseWants(dir string) ([]*expectation, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var expects []*expectation
	for _, file := range files {
		lines, err := readLines(file)
		if err != nil {
			return nil, err
		}
		for i, line := range lines {
			_, comment, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			ms := wantRE.FindAllStringSubmatch(comment, -1)
			if len(ms) == 0 {
				return nil, fmt.Errorf("%s:%d: malformed want comment %q", file, i+1, comment)
			}
			for _, m := range ms {
				pat := m[1]
				if m[2] != "" {
					pat = m[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp: %v", file, i+1, err)
				}
				expects = append(expects, &expectation{file: file, line: i + 1, re: re})
			}
		}
	}
	return expects, nil
}

func readLines(path string) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return strings.Split(string(b), "\n"), nil
}

// sameFile compares by base name: the loader reports absolute positions
// while expectations carry the glob's relative path.
func sameFile(a, b string) bool { return filepath.Base(a) == filepath.Base(b) }
