package sgprs_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamples keeps every program under examples/ buildable from another
// module and its output pinned. It fails when an example file imports
// sgprs/internal/ (Go refuses that import outside this module) or when an
// example directory has no testdata/stdout.txt. It builds all examples in
// one go build, runs each binary and compares its stdout byte for byte with
// that golden; progress lines go to stderr, so stdout is deterministic at
// any GOMAXPROCS. For an intended change, regenerate a golden with
// `go run ./examples/<name> > examples/<name>/testdata/stdout.txt`.
func TestExamples(t *testing.T) {
	fset, files := parseModule(t)
	for _, sf := range files {
		if !strings.HasPrefix(sf.dir, "examples/") {
			continue
		}
		for _, p := range sf.imports {
			if p == "sgprs/internal" || strings.HasPrefix(p, "sgprs/internal/") {
				t.Errorf("%s imports %s: examples use only the sgprs facade", fset.Position(sf.f.Package).Filename, p)
			}
		}
	}

	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			golden := filepath.Join("examples", name, "testdata", "stdout.txt")
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("example %s has no stdout golden: %v", name, err)
			}
			var stdout, stderr bytes.Buffer
			run := exec.Command(filepath.Join(bin, name))
			run.Stdout, run.Stderr = &stdout, &stderr
			if err := run.Run(); err != nil {
				t.Fatalf("examples/%s: %v\n%s", name, err, stderr.Bytes())
			}
			if got := stdout.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("stdout differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}
