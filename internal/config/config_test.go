package config

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

func TestNormalizeDefaults(t *testing.T) {
	e := &Experiment{Scenario: 1}
	if err := e.Normalize(); err != nil {
		t.Fatal(err)
	}
	if len(e.TaskCounts) != 30 || e.TaskCounts[0] != 1 || e.TaskCounts[29] != 30 {
		t.Errorf("task counts = %v", e.TaskCounts)
	}
	if e.HorizonSec != 10 || e.WarmUpSec != 1 || e.Seed != 1 || e.FPS != 30 || e.Stages != 6 {
		t.Errorf("defaults wrong: %+v", e)
	}
	if len(e.Variants) != 4 {
		t.Fatalf("variants = %d, want the paper's 4", len(e.Variants))
	}
	if e.Variants[0].Kind != "naive" || e.Variants[3].Name != "sgprs-2.0x" {
		t.Errorf("variants = %+v", e.Variants)
	}
}

func TestNormalizeErrors(t *testing.T) {
	cases := []*Experiment{
		{Scenario: 3},
		{Scenario: 1, TaskCounts: []int{0}},
		{Scenario: 1, HorizonSec: 1, WarmUpSec: 2},
		{Scenario: 1, Variants: []Variant{{Kind: "quantum", Name: "x", OS: 1}}},
		{Scenario: 1, Variants: []Variant{{Kind: "sgprs", OS: 1}}},
		{Scenario: 0, Variants: []Variant{{Kind: "sgprs", Name: "x", OS: 1}}},
		{Scenario: 1, Variants: []Variant{{Kind: "sgprs", Name: "x"}}},
	}
	for i, e := range cases {
		if err := e.Normalize(); err == nil {
			t.Errorf("case %d accepted: %+v", i, e)
		}
	}
	// A context outside the device is rejected here, naming the variant's
	// entry, not inside a pool worker.
	for _, tc := range []struct {
		pool []int
		want string
	}{
		{[]int{0}, `variant "x" context_sms[0] = 0 outside [1, 68]`},
		{[]int{-4, 34}, `variant "x" context_sms[0] = -4 outside [1, 68]`},
		{[]int{34, 100000}, `variant "x" context_sms[1] = 100000 outside [1, 68]`},
	} {
		e := &Experiment{Variants: []Variant{{Kind: "sgprs", Name: "x", ContextSMs: tc.pool}}}
		if err := e.Normalize(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("context_sms %v: err = %v, want one containing %q", tc.pool, err, tc.want)
		}
	}
}

func TestRunConfigsScenarioPools(t *testing.T) {
	e := &Experiment{Scenario: 2}
	cfgs, err := e.RunConfigs()
	if err != nil {
		t.Fatal(err)
	}
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

func TestRunConfigsExplicitPool(t *testing.T) {
	e := &Experiment{Variants: []Variant{{Kind: "sgprs", Name: "custom", ContextSMs: []int{10, 20, 30}}}}
	cfgs, err := e.RunConfigs()
	if err != nil {
		t.Fatal(err)
	}
	if got := cfgs[0].ContextSMs; len(got) != 3 || got[2] != 30 {
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
}
