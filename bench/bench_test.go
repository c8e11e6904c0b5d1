package main

import (
	"context"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"

	"sgprs/internal/memo"
	"sgprs/internal/runner"
)

func TestFoldChargesInnermostLayerFrame(t *testing.T) {
	listing, err := os.ReadFile("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := fold(string(listing))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"gpu":     10e3,                 // runtime frames skipped to gpu/engine.go
		"ff":      20e3 + 30e3 + 1.03e6, // gpu/ff.go, des/warp.go, sim/fastforward.go
		"runtime": 1.2e6,                // no frame of this module
		"sim":     40e3,                 // config is no layer: the next frame out counts
		"bench":   50e3,                 // the benchmark's own code
		"metrics": 500,                  // a function name with spaces in it
		// the 70ms under runtime/pprof is the profiler's own: dropped
	}
	for _, l := range sortedKeys(got) {
		if _, ok := want[l]; !ok {
			t.Errorf("unexpected layer %q = %v", l, got[l])
		}
	}
	for l, v := range want {
		if math.Abs(got[l]-v) > 1e-6*v {
			t.Errorf("%s = %v µs, want %v", l, got[l], v)
		}
	}
}

func TestFoldRejectsUnknownValue(t *testing.T) {
	_, err := fold("-----------+----\n     12zz   main.f /x.go:1\n")
	if err == nil {
		t.Fatal("fold accepted a value with an unknown unit")
	}
}

// The first cell of each workload, run alone on a fresh cache, reproduces
// its seed-1 golden digest.
func TestFirstCellMatchesGolden(t *testing.T) {
	g, err := loadGoldens(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		jobs, err := w.compile(1)
		if err != nil {
			t.Fatal(err)
		}
		res := runner.Run(context.Background(), jobs[:1], runner.Options{Jobs: 1, Cache: memo.New()})
		if res[0].Err != nil {
			t.Fatalf("%s: %v", w.name, res[0].Err)
		}
		want := g.Cells["1"][w.name]
		if len(want) != len(jobs) {
			t.Fatalf("%s: golden has %d cells, workload %d", w.name, len(want), len(jobs))
		}
		if d := digest(res[0].Result); d != want[0] {
			t.Errorf("%s cell 0 (%s n=%d): digest %s, golden %s", w.name, jobs[0].Variant, jobs[0].Tasks, d, want[0])
		}
	}
}

// BENCHMARK.json names exactly the workloads and metrics the program
// prints, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	var cfg benchmarkFile
	if err := readJSON("../BENCHMARK.json", &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", cfg.RunSeconds, defaultSeconds)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

	var names []string
	for _, w := range cfg.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, program %v", names, workloadNames())
	}

	e2e, _ := e2eMetrics(&setup{}, nil, 0)
	listed := map[string]string{}
	for _, m := range cfg.EndToEnd {
		listed[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	checkNames(t, valid, "end_to_end", listed, e2e)

	layer := layerMetrics(&setup{}, &layerData{}, countMetrics(&setup{}, pass{}, 0))
	listed = map[string]string{}
	for _, m := range cfg.PerLayer {
		listed[m.Name] = m.Unit
	}
	checkNames(t, valid, "per_layer", listed, layer)
}

func checkNames(t *testing.T, valid *regexp.Regexp, section string, listed map[string]string, printed map[string]metric) {
	t.Helper()
	for _, name := range sortedKeys(listed) {
		if !valid.MatchString(name) {
			t.Errorf("%s: invalid name %q", section, name)
		}
		m, ok := printed[name]
		switch {
		case !ok:
			t.Errorf("%s: %s is listed but not printed", section, name)
		case m.Unit != listed[name]:
			t.Errorf("%s: %s unit %q, printed %q", section, name, listed[name], m.Unit)
		}
	}
	for _, name := range sortedKeys(printed) {
		if _, ok := listed[name]; !ok {
			t.Errorf("%s: %s is printed but not listed", section, name)
		}
	}
}

func TestClassify(t *testing.T) {
	tight := func(med float64) side { return side{med * 0.99, med, med * 1.01, med * 0.98, med * 1.02} }
	for _, c := range []struct {
		name  string
		a, b  side
		lower bool
		want  string
	}{
		{"same", tight(100), tight(100), true, "ok"},
		{"slower within bound", tight(100), tight(105), true, "ok"},
		{"slower past bound", tight(100), tight(120), true, "regressed"},
		{"throughput drop past bound", tight(100), tight(80), false, "regressed"},
		{"wide spread", side{80, 100, 120, 70, 130}, tight(100), true, "unresolved"},
		{"wide spread but every run better", side{80, 100, 120, 70, 130}, tight(60), true, "ok"},
	} {
		if _, got := classify(c.a, c.b, c.lower, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
