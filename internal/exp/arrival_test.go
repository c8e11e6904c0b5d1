package exp

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"sgprs/internal/runner"
	"sgprs/internal/sim"
	"sgprs/internal/workload"
)

// TestTraceReplayDeterministicAcrossWorkers is the trace-replay acceptance
// test: the registry's trace-replay experiment — shrunk to a 3 s horizon —
// produces bit-identical series at 1, 2, and 4 workers. Trace arrivals are
// pure data, so worker scheduling has nothing stochastic to leak into.
func TestTraceReplayDeterministicAcrossWorkers(t *testing.T) {
	spec, ok := Lookup("trace-replay")
	if !ok {
		t.Fatal("trace-replay not registered")
	}
	for i := range spec.Variants {
		spec.Variants[i].HorizonSec = 3
	}
	var ref *ResultSet
	for _, workers := range []int{1, 2, 4} {
		rs, err := Run(context.Background(), spec, runner.Options{Jobs: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = rs
			// Vacuity guard: the replay must actually complete work on
			// both variants.
			for name, series := range rs.Series() {
				for _, p := range series {
					if p.Summary.Completed == 0 {
						t.Fatalf("%s n=%d completed nothing", name, p.Tasks)
					}
				}
			}
			continue
		}
		if !reflect.DeepEqual(ref.Series(), rs.Series()) || !reflect.DeepEqual(ref.Order, rs.Order) {
			t.Errorf("workers=%d: results differ from single-worker reference", workers)
		}
	}
}

// TestOverloadTailCompiles: the overload-tail builtin expands rate-major
// with the task axis innermost, labeling each cell with its rate factor.
func TestOverloadTailCompiles(t *testing.T) {
	spec, ok := Lookup("overload-tail")
	if !ok {
		t.Fatal("overload-tail not registered")
	}
	c, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 4 * 3; len(c.Jobs) != want {
		t.Errorf("compiled %d jobs, want %d", len(c.Jobs), want)
	}
	if c.Order[0] != "sgprs-1.5x@rate=1" {
		t.Errorf("first label = %q", c.Order[0])
	}
	for _, j := range c.Jobs {
		if j.Config.Arrival == nil {
			t.Fatalf("job %q has no arrival process", j.Config.Name)
		}
		if j.Config.SLOMS <= 0 {
			t.Fatalf("job %q has no SLO", j.Config.Name)
		}
	}
	// The rate axis scales the template's Poisson: cell rate=2 must carry
	// a process distinct from the rate=1 template.
	if name := c.Jobs[len(c.Jobs)-1].Config.Arrival.Name(); !strings.Contains(name, "2") {
		t.Errorf("last cell arrival %q does not reflect the 2.0 rate factor", name)
	}
}

// TestRateAxisNeedsArrival: a rate axis over a variant without an arrival
// process is a compile error naming the variant, not a worker panic.
func TestRateAxisNeedsArrival(t *testing.T) {
	spec := &Spec{
		Name: "rate-no-arrival",
		Variants: []sim.RunConfig{{
			Kind: sim.KindSGPRS, Name: "s", ContextSMs: []int{34, 34},
			NumTasks: 2, HorizonSec: 2,
		}},
		Axes: []Axis{Rate(1, 2)},
	}
	_, err := spec.Compile()
	if err == nil {
		t.Fatal("rate axis without arrival compiled")
	}
	if !strings.Contains(err.Error(), "arrival") || !strings.Contains(err.Error(), `"s@rate=1"`) {
		t.Errorf("error %q does not name the variant and the missing arrival", err)
	}
}

// TestArrivalAxisCompile: an arrival axis sweeps the process per cell, is
// labeled by process name, and composes with a rate axis regardless of the
// axes' declaration order (rate applies after arrival).
func TestArrivalAxisCompile(t *testing.T) {
	spec := &Spec{
		Name: "arrival-sweep",
		Variants: []sim.RunConfig{{
			Kind: sim.KindSGPRS, Name: "s", ContextSMs: []int{34, 34},
			NumTasks: 2, HorizonSec: 2,
		}},
		Axes: []Axis{
			Rate(1, 2), // declared before the arrival axis on purpose
			Arrivals(workload.Periodic{}, workload.Poisson{}),
		},
	}
	c, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Jobs) != 4 {
		t.Fatalf("compiled %d jobs, want 4", len(c.Jobs))
	}
	byLabel := map[string]runnerJob{}
	for _, j := range c.Jobs {
		byLabel[j.Variant] = runnerJob{arrival: j.Config.Arrival.Name()}
	}
	for label, want := range map[string]string{
		"s@rate=1,arr=periodic": "periodic",
		"s@rate=2,arr=periodic": "periodic-2x",
		"s@rate=1,arr=poisson":  "poisson",
		"s@rate=2,arr=poisson":  "poisson-2x",
	} {
		got, ok := byLabel[label]
		if !ok {
			t.Errorf("missing cell %q (have %v)", label, c.Order)
			continue
		}
		if got.arrival != want {
			t.Errorf("%s: arrival = %q, want %q", label, got.arrival, want)
		}
	}
}

type runnerJob struct{ arrival string }

// TestArrivalAxisValidation: malformed axes fail at compile time with the
// axis named.
func TestArrivalAxisValidation(t *testing.T) {
	base := sim.RunConfig{
		Kind: sim.KindSGPRS, Name: "s", ContextSMs: []int{34, 34},
		NumTasks: 2, HorizonSec: 2,
	}
	for name, axes := range map[string][]Axis{
		"empty-arrivals": {Arrivals()},
		"nil-point":      {Arrivals(nil)},
		"invalid-point":  {Arrivals(workload.Poisson{Rate: -1})},
		"values-on-arrival": {{
			Kind: AxisArrival, Values: []float64{1},
			Arrivals: []workload.Arrival{workload.Poisson{}},
		}},
		"arrivals-on-tasks": {{
			Kind: AxisTasks, Values: []float64{2},
			Arrivals: []workload.Arrival{workload.Poisson{}},
		}},
		"zero-rate":     {Arrivals(workload.Poisson{}), Rate(0)},
		"infinite-rate": {Arrivals(workload.Poisson{}), Rate(math.Inf(1))},
	} {
		spec := &Spec{Name: name, Variants: []sim.RunConfig{base}, Axes: axes}
		if _, err := spec.Compile(); err == nil {
			t.Errorf("%s: compiled", name)
		}
	}
}

// TestAxisStringAndKinds pins the -list rendering contract: every kind is
// enumerated, and axes render with their value ranges.
func TestAxisStringAndKinds(t *testing.T) {
	kinds := Kinds()
	if len(kinds) != 11 {
		t.Fatalf("Kinds() lists %d kinds", len(kinds))
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] || strings.HasPrefix(s, "axis(") {
			t.Errorf("kind %d renders %q", int(k), s)
		}
		seen[s] = true
	}
	for want, axis := range map[string]Axis{
		"task-count=1..30":          TaskRange(1, 30),
		"task-count=8,16,23":        Tasks(8, 16, 23),
		"arrival-rate=1,1.25,1.5":   Rate(1, 1.25, 1.5),
		"arrival=periodic,poisson":  Arrivals(workload.Periodic{}, workload.Poisson{}),
		"over-subscription=1.5":     OverSub(1.5),
		"release-jitter-ms=0,2,5":   JitterMS(0, 2, 5),
		"horizon-sec=10":            HorizonSec(10),
		"arrival=trace:synthetic-1": Arrivals(workload.Trace{Data: workload.SyntheticTrace("synthetic-1", 1, 10, 1, 1)}),
	} {
		if got := axis.String(); got != want {
			t.Errorf("Axis.String() = %q, want %q", got, want)
		}
	}
}
