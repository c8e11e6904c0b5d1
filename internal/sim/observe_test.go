package sim

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"reflect"
	"testing"

	"sgprs/internal/fault"
	"sgprs/internal/rt"
	"sgprs/internal/speedup"
	"sgprs/internal/trace"
)

// TestObservingNeverChangesResult: a run with a trace.Recorder attached as
// RunConfig.Observer returns the very Result of the same run without one,
// every field of it. The cells are an over-subscribed SGPRS and a naive
// scenario cell and a faulted 3-device fleet, where each device's hook list
// holds the recorder and that device's fault injector.
func TestObservingNeverChangesResult(t *testing.T) {
	np, err := ScenarioContexts(2)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(v Variant) RunConfig {
		return RunConfig{
			Kind: v.Kind, Name: v.Name, ContextSMs: ContextPool(np, v.OS, speedup.DeviceSMs),
			NumTasks: 16, HorizonSec: 2, Seed: 1,
		}
	}
	fleet := fleetConfig("traced-fleet", rt.FailoverMigrate)
	fleet.Faults.Transient = &fault.Transient{Prob: 0.05, Policy: "retry", MaxRetries: 2}
	for _, cfg := range []RunConfig{
		cell(Variant{Kind: KindSGPRS, Name: "sgprs-1.5x", OS: 1.5}),
		cell(Variant{Kind: KindNaive, Name: "naive", OS: 1}),
		fleet,
	} {
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		rec := trace.NewRecorder()
		cfg.Observer = rec
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: traced result differs:\n got %+v\nwant %+v", cfg.Name, got, want)
		}
		if len(rec.Spans()) == 0 {
			t.Errorf("%s: the recorder captured no spans", cfg.Name)
		}
		if cfg.Devices > 1 {
			if f := got.Summary.Faults; f.TransientFaults == 0 || f.Retries == 0 || f.Overruns == 0 {
				t.Errorf("%s: fault families idle: %+v", cfg.Name, f)
			}
			if got.Summary.Fleet.Crashes == 0 {
				t.Errorf("%s: no device crashed", cfg.Name)
			}
		}
	}
}

// TestFleetTraceTrackPerDevice: a recorder on a 2-device fleet, whose
// devices name their contexts alike, exports one track per (device,
// context) — as Chrome trace processes and as the CSV's context column —
// not one per context name.
func TestFleetTraceTrackPerDevice(t *testing.T) {
	cfg := fleetConfig("traced-pair", rt.FailoverMigrate)
	cfg.Devices = 2
	cfg.Faults = nil
	rec := trace.NewRecorder()
	cfg.Observer = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	want := cfg.Devices * len(cfg.ContextSMs)

	var js bytes.Buffer
	if err := rec.WriteChromeTrace(&js); err != nil {
		t.Fatal(err)
	}
	var events []struct{ Pid string }
	if err := json.Unmarshal(js.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	pids := map[string]bool{}
	for _, e := range events {
		pids[e.Pid] = true
	}
	if len(pids) != want {
		t.Errorf("chrome trace has %d processes %v, want %d: one per device and context", len(pids), pids, want)
	}

	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	tracks := map[string]bool{}
	for _, row := range rows[1:] {
		tracks[row[1]] = true
	}
	if len(tracks) != want {
		t.Errorf("csv has %d context tracks %v, want %d: one per device and context", len(tracks), tracks, want)
	}
}
