package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sgprs/internal/fault"
	"sgprs/internal/gpu"
	"sgprs/internal/runner"
	"sgprs/internal/sim"
	"sgprs/internal/speedup"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

const goldenFile = "testdata/golden.txt"

// goldenHeader documents the digest recipe; bench/golden.go hashes cells the
// same way.
const goldenHeader = `# One line per cell: spec, variant label, task count, and the hex SHA-256 of
# fmt.Sprintf("%+v", sim.Result). Regenerate with: go test ./internal/exp -run TestGoldenDigests -update
`

// goldenSpecs is the pinned grid: both paper scenarios, nil-arrival cells
// whose jitter, work-variation and stagger draws interleave on the release
// RNG, a fast-forward-eligible cell, and shrunk copies of the open-loop,
// trace, fault and fleet builtins. Everything runs at a 2-6 s horizon so
// the whole grid stays within a few seconds.
func goldenSpecs(t *testing.T) []*Spec {
	t.Helper()
	var specs []*Spec
	for _, sc := range []int{1, 2} {
		s, err := Scenario(sc, []int{4, 12, 24}, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}

	jittered := func(cfg sim.RunConfig, name string) sim.RunConfig {
		cfg.Name = name
		cfg.ReleaseJitterMS = 3
		cfg.WorkVariation = 0.15
		cfg.Stagger = true
		return cfg
	}
	naive := sim.RunConfig{
		Kind:       sim.KindNaive,
		ContextSMs: sim.ContextPool(2, 1.0, speedup.DeviceSMs),
		HorizonSec: 2,
		Seed:       3,
		NumTasks:   1,
	}
	specs = append(specs, &Spec{
		Name: "nil-arrival",
		Variants: []sim.RunConfig{
			jittered(sgprsBase(""), "sgprs-jittered"),
			jittered(naive, "naive-jittered"),
			{Kind: sim.KindSGPRS, Name: "sgprs-workvar", ContextSMs: sim.ContextPool(3, 1.5, speedup.DeviceSMs),
				HorizonSec: 2, Seed: 5, NumTasks: 1, WorkVariation: 0.1},
		},
		Axes: []Axis{Tasks(4, 12)},
	})

	g := gpu.DefaultConfig()
	g.ContentionJitter = 0
	g.Seed = 2
	specs = append(specs, &Spec{
		Name: "fast-forward",
		Variants: []sim.RunConfig{{Kind: sim.KindSGPRS, Name: "sgprs-eligible",
			ContextSMs: sim.ContextPool(2, 1.5, speedup.DeviceSMs), HorizonSec: 6, Seed: 1, NumTasks: 8, GPU: g}},
	})

	shrink := func(name string, horizon float64, axes ...Axis) *Spec {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("builtin %q not registered", name)
		}
		for i := range s.Variants {
			s.Variants[i].HorizonSec = horizon
		}
		s.Axes = axes
		return s
	}
	specs = append(specs,
		shrink("overload-tail", 2, Rate(1.0, 2.0), Tasks(8)),
		shrink("trace-replay", 3, Tasks(4, 8)),
		shrink("fault-resilience", 2, FaultRate(0.05), Tasks(8)),
		shrink("fleet-failover", 6, Tasks(12)),
	)
	// A degradation window inside the fault-resilience horizon exercises
	// the degraded-capacity attribution alongside the transient faults.
	for i := range specs[len(specs)-2].Variants {
		specs[len(specs)-2].Variants[i].Faults.Degradation = []fault.Window{{StartSec: 1.2, EndSec: 1.6, SMs: 48}}
	}
	return specs
}

// goldenDigests runs the golden grid and renders one digest line per cell.
// The fast-forward spec must actually skip cycles, or it pins nothing.
func goldenDigests(t *testing.T, workers int) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(goldenHeader)
	for _, spec := range goldenSpecs(t) {
		rs, err := Run(context.Background(), spec, runner.Options{Jobs: workers})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, r := range rs.Results {
			if spec.Name == "fast-forward" && r.Result.FastForward.CyclesSkipped == 0 {
				t.Fatalf("%s %s: fast-forward never engaged", spec.Name, r.Job.Variant)
			}
			sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", r.Result)))
			fmt.Fprintf(&b, "%s %s n=%d %s\n", spec.Name, r.Job.Variant, r.Job.Tasks, hex.EncodeToString(sum[:]))
		}
	}
	return b.String()
}

// TestGoldenDigests pins every golden cell's full sim.Result to the digest
// committed in testdata, at 1, 2 and 4 workers. A mismatch means a behaviour
// change: either a bug, or an intended change to be recorded with -update
// and explained.
func TestGoldenDigests(t *testing.T) {
	path := filepath.FromSlash(goldenFile)
	if *update {
		got := goldenDigests(t, 1)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record the goldens)", err)
	}
	for _, workers := range []int{1, 2, 4} {
		if got := goldenDigests(t, workers); got != string(want) {
			t.Errorf("workers=%d: digests differ from %s", workers, goldenFile)
			diffLines(t, got, string(want))
		}
	}
}

// diffLines reports every line where got and want differ.
func diffLines(t *testing.T, got, want string) {
	t.Helper()
	wantLines := strings.Split(want, "\n")
	gotLines := strings.Split(got, "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
