package config

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sgprs/internal/exp"
	"sgprs/internal/workload"
)

// TestArrivalBuildKinds: every serialisable kind translates into its
// workload process, and the name round-trips so sweep labels stay readable.
func TestArrivalBuildKinds(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(trace, []byte("time_s,task\n0.1,0\n0.2,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		arr  Arrival
		name string
	}{
		{Arrival{Kind: "periodic"}, "periodic"},
		{Arrival{Kind: "periodic", Rate: 2}, "periodic-2x"},
		{Arrival{Kind: "poisson", Rate: 40}, "poisson-40"},
		{Arrival{Kind: "bursty", OnSec: 0.5, OffSec: 0.5, Rate: 60}, "bursty"},
		{Arrival{Kind: "mmpp", RatesPerSec: []float64{10, 80}, MeanSojournSec: []float64{1, 0.2}}, "mmpp"},
		{Arrival{Kind: "diurnal", PeriodSec: 10, MinRate: 5, MaxRate: 50}, "diurnal"},
		{Arrival{Kind: "trace", Trace: trace}, "trace:t"},
	}
	for _, c := range cases {
		p, err := c.arr.Build()
		if err != nil {
			t.Errorf("%s: %v", c.arr.Kind, err)
			continue
		}
		if got := p.Name(); !strings.HasPrefix(got, c.name) {
			t.Errorf("%s: name = %q, want prefix %q", c.arr.Kind, got, c.name)
		}
	}
}

// TestArrivalBuildErrors: bad kinds and bad parameters fail at Build time
// with config-scoped errors, not at simulation time.
func TestArrivalBuildErrors(t *testing.T) {
	cases := map[string]Arrival{
		"unknown-kind":  {Kind: "quantum"},
		"negative-rate": {Kind: "poisson", Rate: -1},
		"bursty-no-on":  {Kind: "bursty", OffSec: 1},
		"mmpp-mismatch": {Kind: "mmpp", RatesPerSec: []float64{1, 2}, MeanSojournSec: []float64{1}},
		"diurnal-flip":  {Kind: "diurnal", PeriodSec: 10, MinRate: 50, MaxRate: 5},
		"trace-missing": {Kind: "trace", Trace: filepath.Join(t.TempDir(), "nope.csv")},
	}
	for name, arr := range cases {
		if _, err := arr.Build(); err == nil {
			t.Errorf("%s: built %+v", name, arr)
		}
	}
}

// TestNormalizeArrivalRules: slo_ms must be non-negative, and rate_factors
// are only meaningful with an arrival block to scale; both fail before any
// run starts, naming the variant.
func TestNormalizeArrivalRules(t *testing.T) {
	bad := []struct {
		e    *Experiment
		want string
	}{
		{&Experiment{Scenario: 1, SLOMS: -1}, `run "naive" SLO -1ms must be non-negative`},
		{&Experiment{Scenario: 1, RateFactors: []float64{1, 2}}, `variant "naive@rate=1": arrival-rate axis needs an arrival process`},
	}
	for i, tc := range bad {
		if _, err := compile(tc.e); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err = %v, want one containing %q", i, err, tc.want)
		}
	}
	ok := &Experiment{Scenario: 1, Arrival: &Arrival{Kind: "poisson"}, RateFactors: []float64{1, 2}, SLOMS: 33.4}
	if _, err := compile(ok); err != nil {
		t.Errorf("valid open-loop experiment rejected: %v", err)
	}
}

// TestSpecCarriesArrival: the arrival block and SLO reach every variant, and
// the Spec gains a rate axis ahead of the task axis.
func TestSpecCarriesArrival(t *testing.T) {
	e := &Experiment{
		Scenario:    1,
		TaskCounts:  []int{4, 8},
		Arrival:     &Arrival{Kind: "poisson", Rate: 45},
		SLOMS:       33.4,
		RateFactors: []float64{1, 2},
	}
	if err := e.Normalize(); err != nil {
		t.Fatal(err)
	}
	spec, err := e.Spec("json-open-loop")
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range spec.Variants {
		if cfg.Arrival == nil || cfg.Arrival.Name() != "poisson-45" {
			t.Errorf("%s: arrival = %v", cfg.Name, cfg.Arrival)
		}
		if cfg.SLOMS != 33.4 {
			t.Errorf("%s: slo = %v", cfg.Name, cfg.SLOMS)
		}
	}
	if len(spec.Axes) != 2 || spec.Axes[0].Kind != exp.AxisRate || spec.Axes[1].Kind != exp.AxisTasks {
		t.Fatalf("axes = %+v, want rate then tasks", spec.Axes)
	}
	c, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * 2 * 2; len(c.Jobs) != want {
		t.Errorf("compiled %d jobs, want %d", len(c.Jobs), want)
	}
}

// TestSaveLoadArrivalRoundTrip: the arrival block survives a save/load cycle
// and still builds the same process.
func TestSaveLoadArrivalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "exp.json")
	e := &Experiment{
		Scenario: 2,
		Arrival:  &Arrival{Kind: "bursty", OnSec: 0.3, OffSec: 0.7, Rate: 50},
		SLOMS:    40,
	}
	save(t, e, path)
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Arrival == nil || !reflect.DeepEqual(got.Arrival, e.Arrival) || got.SLOMS != 40 {
		t.Fatalf("round trip lost the arrival block: %+v", got)
	}
	p, err := got.Arrival.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(workload.Bursty); !ok {
		t.Errorf("built %T, want workload.Bursty", p)
	}
}
