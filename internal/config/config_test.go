package config

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sgprs/internal/exp"
	"sgprs/internal/fault"
	"sgprs/internal/sim"
)

// save writes e to path as the JSON file Load reads.
func save(t *testing.T, e *Experiment, path string) {
	t.Helper()
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// compile takes e where sgprs sweep -config takes a file before any run:
// Load's Normalize, Spec, and the dry run of every cell in exp.Compile.
func compile(e *Experiment) (*exp.Compiled, error) {
	if err := e.Normalize(); err != nil {
		return nil, err
	}
	s, err := e.Spec("test")
	if err != nil {
		return nil, err
	}
	return s.Compile()
}

func TestNormalizeDefaults(t *testing.T) {
	e := &Experiment{Scenario: 1}
	if err := e.Normalize(); err != nil {
		t.Fatal(err)
	}
	if len(e.TaskCounts) != 30 || e.TaskCounts[0] != 1 || e.TaskCounts[29] != 30 {
		t.Errorf("task counts = %v", e.TaskCounts)
	}
	// The run defaults (10 s horizon, 1 s warm-up, 30 fps, 6 stages) are
	// sim.RunConfig.Normalize's; the file leaves them unset.
	if e.Seed != 1 || e.HorizonSec != 0 || e.WarmUpSec != 0 || e.FPS != 0 || e.Stages != 0 {
		t.Errorf("defaults wrong: %+v", e)
	}
	if len(e.Variants) != 4 {
		t.Fatalf("variants = %d, want the paper's 4", len(e.Variants))
	}
	if e.Variants[0].Kind != "naive" || e.Variants[3].Name != "sgprs-2.0x" {
		t.Errorf("variants = %+v", e.Variants)
	}
}

// TestNormalizeErrors: a malformed experiment fails before any run starts,
// with an error naming the variant where there is one and the field —
// whether Normalize, Spec or exp.Compile's dry run of sim.RunConfig.Normalize
// rejects it.
func TestNormalizeErrors(t *testing.T) {
	x := func(v Variant) []Variant {
		v.Name = "x"
		return []Variant{v}
	}
	cases := []struct {
		e    *Experiment
		want string
	}{
		{&Experiment{Scenario: 3}, "unknown scenario 3"},
		{&Experiment{Scenario: 1, TaskCounts: []int{0}}, "task-count axis value 0 must be an integer >= 1"},
		{&Experiment{Scenario: 1, HorizonSec: 1, WarmUpSec: 2}, `run "naive" horizon 1s must exceed warm-up 2s`},
		{&Experiment{Scenario: 1, Variants: x(Variant{Kind: "quantum", OS: 1})}, `variant "x": unknown scheduler "quantum"`},
		{&Experiment{Scenario: 1, Variants: []Variant{{Kind: "sgprs", OS: 1}}}, "variant 0 needs a name"},
		{&Experiment{Variants: x(Variant{Kind: "sgprs", OS: 1})}, `variant "x" needs context_sms when no scenario is set`},
		{&Experiment{}, "config: the experiment needs a scenario or variants"},
		{&Experiment{Scenario: 1, Variants: x(Variant{Kind: "sgprs"})}, `variant "x" needs an over-subscription level`},
		// A context outside the device names the variant's entry.
		{&Experiment{Variants: x(Variant{Kind: "sgprs", ContextSMs: []int{0}})}, `run "x" ContextSMs[0] = 0 outside [1, 68]`},
		{&Experiment{Variants: x(Variant{Kind: "sgprs", ContextSMs: []int{-4, 34}})}, `run "x" ContextSMs[0] = -4 outside [1, 68]`},
		{&Experiment{Variants: x(Variant{Kind: "sgprs", ContextSMs: []int{34, 100000}})}, `run "x" ContextSMs[1] = 100000 outside [1, 68]`},
		{&Experiment{Scenario: 1, Devices: -1}, `run "naive" device count -1 must be non-negative`},
		{&Experiment{Scenario: 1, Placement: "load-steal"}, `run "naive" sets fleet options`},
		{&Experiment{Scenario: 1, Devices: 2, Failover: "panic"}, `unknown failover policy "panic"`},
		{&Experiment{Scenario: 1, Devices: 1, AdmitCeiling: 0.5}, `config: "admit_ceiling" needs a fleet, but devices 1 forces single-device runs`},
		{&Experiment{Scenario: 1, Devices: 1, Placement: "load-steal"}, `config: "placement" needs a fleet`},
		{&Experiment{Scenario: 1, Devices: 1, Faults: &fault.Config{DeviceFaults: []fault.DeviceFault{{Device: 1, StartSec: 1}}}}, `config: device_faults in "faults" need a fleet`},
		{&Experiment{Scenario: 1, Faults: &fault.Config{DeviceFaults: []fault.DeviceFault{{Device: 1, StartSec: 1}}}}, `run "naive" injects device faults on a single device`},
		{&Experiment{Scenario: 1, Faults: &fault.Config{Transient: &fault.Transient{Prob: 2}}}, `run "naive" faults: fault: transient probability 2 outside [0, 1]`},
	}
	for i, tc := range cases {
		if _, err := compile(tc.e); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err = %v, want one containing %q", i, err, tc.want)
		}
	}
}

// TestSpecScenarioPools: variants without context_sms take the pool their
// scenario and over-subscription level give.
func TestSpecScenarioPools(t *testing.T) {
	e := &Experiment{Scenario: 2}
	if err := e.Normalize(); err != nil {
		t.Fatal(err)
	}
	spec, err := e.Spec("pools")
	if err != nil {
		t.Fatal(err)
	}
	cfgs := spec.Variants
	if len(cfgs) != 4 {
		t.Fatalf("configs = %d", len(cfgs))
	}
	// Naive tiles the device regardless of its nominal OS.
	if got := cfgs[0].ContextSMs; len(got) != 3 || got[0] != 23 {
		t.Errorf("naive pool = %v, want [23 23 23]", got)
	}
	// SGPRS 1.5x in scenario 2: 34 SMs per context.
	if got := cfgs[2].ContextSMs; len(got) != 3 || got[0] != 34 {
		t.Errorf("sgprs-1.5x pool = %v, want [34 34 34]", got)
	}
	if cfgs[1].Kind != sim.KindSGPRS || cfgs[0].Kind != sim.KindNaive {
		t.Error("kinds wrong")
	}
}

func TestSpecExplicitPool(t *testing.T) {
	e := &Experiment{Variants: []Variant{{Kind: "sgprs", Name: "custom", ContextSMs: []int{10, 20, 30}}}}
	if err := e.Normalize(); err != nil {
		t.Fatal(err)
	}
	spec, err := e.Spec("custom")
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.Variants[0].ContextSMs; len(got) != 3 || got[2] != 30 {
		t.Errorf("pool = %v", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "exp.json")
	e := &Experiment{Scenario: 1, TaskCounts: []int{5, 10}, Seed: 42}
	save(t, e, path)
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scenario != 1 || got.Seed != 42 || len(got.TaskCounts) != 2 {
		t.Errorf("round trip = %+v", got)
	}
	// Load normalises: variants filled in.
	if len(got.Variants) != 4 {
		t.Errorf("variants = %d", len(got.Variants))
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load("/nonexistent/exp.json"); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := Load(bad); err == nil {
		t.Error("bad JSON accepted")
	}
	invalid := filepath.Join(dir, "invalid.json")
	os.WriteFile(invalid, []byte(`{"scenario": 7}`), 0o644)
	if _, err := Load(invalid); err == nil {
		t.Error("invalid scenario accepted")
	}
	// A misspelt key fails naming it, instead of running the default it
	// was meant to replace; so does anything after the experiment.
	for _, tc := range []struct{ body, want string }{
		{`{"scenario": 1, "horizon": 3}`, `json: unknown field "horizon"`},
		{`{"scenario": 1, "faults": {"transient": {"probability": 0.05}}}`, `json: unknown field "probability"`},
		{`{"scenario": 1} {"seed": 2}`, "data after the JSON value"},
		{`{"scenario": 1}}`, "data after the JSON value"},
	} {
		os.WriteFile(invalid, []byte(tc.body), 0o644)
		if _, err := Load(invalid); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.body, err, tc.want)
		}
	}
}
