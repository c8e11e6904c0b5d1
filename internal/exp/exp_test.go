package exp

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"sgprs/internal/cluster"
	"sgprs/internal/runner"
	"sgprs/internal/sim"
)

func sgprsBase(name string) sim.RunConfig {
	return sim.RunConfig{
		Kind:       sim.KindSGPRS,
		Name:       name,
		ContextSMs: sim.ContextPool(2, 1.5, 68),
		NumTasks:   1,
		HorizonSec: 2,
		Seed:       1,
	}
}

// TestCompileExpansion: variant-major order, non-task axes as labelled
// combinations, task counts innermost, template fields overwritten.
func TestCompileExpansion(t *testing.T) {
	s := &Spec{
		Name:     "t",
		Variants: []sim.RunConfig{sgprsBase("a"), sgprsBase("b")},
		Axes:     []Axis{JitterMS(0, 2), Tasks(2, 4)},
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []string{"a@jit=0", "a@jit=2", "b@jit=0", "b@jit=2"}
	if !reflect.DeepEqual(c.Order, wantOrder) {
		t.Errorf("order = %v, want %v", c.Order, wantOrder)
	}
	if !reflect.DeepEqual(c.TaskCounts, []int{2, 4}) {
		t.Errorf("task counts = %v", c.TaskCounts)
	}
	if len(c.Jobs) != 8 {
		t.Fatalf("jobs = %d, want 8", len(c.Jobs))
	}
	// Second block: variant a, jitter 2, tasks 2 then 4.
	j := c.Jobs[2]
	if j.Variant != "a@jit=2" || j.Tasks != 2 || j.Config.ReleaseJitterMS != 2 || j.Config.NumTasks != 2 {
		t.Errorf("job[2] = %+v", j)
	}
	if j.Config.Name != "a@jit=2" {
		t.Errorf("job config name = %q, want expanded label", j.Config.Name)
	}
}

// TestCompileOverSubAxis: the over-subscription axis rescales each
// variant's pool while keeping its context count.
func TestCompileOverSubAxis(t *testing.T) {
	base := sgprsBase("s")
	base.ContextSMs = sim.ContextPool(3, 1.0, 68)
	s := &Spec{Name: "t", Variants: []sim.RunConfig{base}, Axes: []Axis{OverSub(1.0, 2.0), Tasks(4)}}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Jobs[0].Config.ContextSMs, sim.ContextPool(3, 1.0, 68); !reflect.DeepEqual(got, want) {
		t.Errorf("os=1.0 pool = %v, want %v", got, want)
	}
	if got, want := c.Jobs[1].Config.ContextSMs, sim.ContextPool(3, 2.0, 68); !reflect.DeepEqual(got, want) {
		t.Errorf("os=2.0 pool = %v, want %v", got, want)
	}
}

// TestCompileValidation: every rejected shape names the spec and the
// offending variant or axis, at compile time.
func TestCompileValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"no variants", Spec{Name: "x"}, "no variants"},
		{"duplicate variants", Spec{Name: "x",
			Variants: []sim.RunConfig{sgprsBase("dup"), sgprsBase("dup")},
			Axes:     []Axis{Tasks(2)}}, `duplicate variant name "dup"`},
		{"empty task axis", Spec{Name: "x",
			Variants: []sim.RunConfig{sgprsBase("a")},
			Axes:     []Axis{Tasks()}}, "empty task-count axis"},
		{"fractional task count", Spec{Name: "x",
			Variants: []sim.RunConfig{sgprsBase("a")},
			Axes:     []Axis{{Kind: AxisTasks, Values: []float64{1.5}}}}, "task-count axis value 1.5"},
		{"negative oversub", Spec{Name: "x",
			Variants: []sim.RunConfig{sgprsBase("a")},
			Axes:     []Axis{OverSub(-1), Tasks(2)}}, "over-subscription axis value -1"},
		{"zero horizon axis", Spec{Name: "x",
			Variants: []sim.RunConfig{sgprsBase("a")},
			Axes:     []Axis{HorizonSec(0), Tasks(2)}}, "horizon-sec axis value 0"},
		{"duplicate axes", Spec{Name: "x",
			Variants: []sim.RunConfig{sgprsBase("a")},
			Axes:     []Axis{Tasks(2), Tasks(4)}}, "two task-count axes"},
		{"oversub without pool", Spec{Name: "x",
			Variants: []sim.RunConfig{{Kind: sim.KindSGPRS, Name: "bare", NumTasks: 1, HorizonSec: 2}},
			Axes:     []Axis{OverSub(1.5), Tasks(2)}}, `variant "bare@os=1.5"`},
		{"horizon under warmup", Spec{Name: "x",
			Variants: func() []sim.RunConfig {
				v := sgprsBase("w")
				v.WarmUpSec = 3
				return []sim.RunConfig{v}
			}(),
			Axes: []Axis{HorizonSec(2), Tasks(2)}}, `run "w@h=2" horizon`},
		{"no contexts", Spec{Name: "x",
			Variants: []sim.RunConfig{{Kind: sim.KindSGPRS, Name: "bare", NumTasks: 1}},
			Axes:     []Axis{Tasks(2)}}, "no contexts"},
	}
	for _, tc := range cases {
		_, err := tc.spec.Compile()
		if err == nil {
			t.Errorf("%s: compile succeeded, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if tc.spec.Name != "" && !strings.Contains(err.Error(), `"`+tc.spec.Name+`"`) {
			t.Errorf("%s: error %q does not name the spec", tc.name, err)
		}
	}
}

// TestCompileWithoutTaskAxis: a spec without a task axis runs each variant
// at its template task count.
func TestCompileWithoutTaskAxis(t *testing.T) {
	a := sgprsBase("a")
	a.NumTasks = 4
	b := sgprsBase("b")
	b.NumTasks = 8
	c, err := (&Spec{Name: "fixed", Variants: []sim.RunConfig{a, b}}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Jobs) != 2 || c.Jobs[0].Tasks != 4 || c.Jobs[1].Tasks != 8 {
		t.Errorf("jobs = %+v", c.Jobs)
	}
	if !reflect.DeepEqual(c.TaskCounts, []int{4, 8}) {
		t.Errorf("task counts = %v", c.TaskCounts)
	}
}

// TestSeedPolicies: seeds are fixed at compile time, and every cell keeps
// its variant's configured seed.
func TestSeedPolicies(t *testing.T) {
	s := Series(sgprsBase("s"), []int{2, 4})
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range c.Jobs {
		if j.Config.Seed != 1 {
			t.Errorf("job n=%d has seed %d, want its variant's 1", j.Tasks, j.Config.Seed)
		}
	}
}

// TestPlacementAxisNames: a placement axis shows its policies by name, in
// Axis.String (the `sgprs list` column) and in expanded cell labels, so the
// cells of a placement sweep can be told apart.
func TestPlacementAxisNames(t *testing.T) {
	axis := Placements(cluster.PlaceBinPack, cluster.PlaceContextFit, cluster.PlaceLoadSteal)
	if got, want := axis.String(), "placement=bin-pack,context-fit,load-steal"; got != want {
		t.Errorf("Axis.String() = %q, want %q", got, want)
	}
	v := sgprsBase("f")
	v.Devices = 2
	c, err := (&Spec{Name: "pl", Variants: []sim.RunConfig{v}, Axes: []Axis{axis}}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"f@pl=bin-pack", "f@pl=context-fit", "f@pl=load-steal"}
	if !reflect.DeepEqual(c.Order, want) {
		t.Errorf("labels = %q, want %q", c.Order, want)
	}
}

// TestRegistry: built-ins present, lookups are isolated clones, duplicate
// and invalid registrations rejected.
func TestRegistry(t *testing.T) {
	for _, name := range []string{"scenario1", "scenario2", "ablation-grid", "jitter-ladder", "oversubscription"} {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("built-in %q missing from registry", name)
		}
		if _, err := s.Compile(); err != nil {
			t.Errorf("built-in %q does not compile: %v", name, err)
		}
	}
	if got := len(List()); got < 5 {
		t.Errorf("List() returned %d specs, want >= 5 built-ins", got)
	}

	// Clone isolation: mutating a lookup must not corrupt the registry.
	s, _ := Lookup("jitter-ladder")
	s.Variants[0].ContextSMs[0] = 1
	s.Axes[0].Values[0] = 99
	fresh, _ := Lookup("jitter-ladder")
	if fresh.Variants[0].ContextSMs[0] == 1 || fresh.Axes[0].Values[0] == 99 {
		t.Error("mutating a Lookup clone leaked into the registry")
	}

	if err := Register(&Spec{}); err == nil {
		t.Error("nameless spec registered")
	}
	if err := Register(&Spec{Name: "scenario1"}); err == nil {
		t.Error("duplicate name registered")
	}
	if err := Register(&Spec{Name: "broken-test-spec"}); err == nil {
		t.Error("non-compiling spec registered")
	}
}

// TestRunStreamsAndCancels: exp.Run streams per-job results in finalization
// order and honours cancellation with partial results (single worker keeps
// it deterministic on the single-core container).
func TestRunStreamsAndCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var streamed []string
	opt := runner.Options{Jobs: 1, Progress: func(done, total int, r runner.JobResult) {
		streamed = append(streamed, r.Job.Variant)
		if done == 3 {
			cancel()
		}
	}}
	rs, err := Run(ctx, Series(sgprsBase("s"), []int{1, 2, 3, 4, 5}), opt)
	if rs == nil {
		t.Fatalf("cancelled run returned no results: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if len(streamed) != 5 {
		t.Errorf("streamed %d results, want all 5 finalized", len(streamed))
	}
	series := rs.Series()["s"]
	if len(series) != 3 {
		t.Errorf("completed points = %d, want 3", len(series))
	}
}

// TestRunCompileError: an uncompilable spec is rejected before any job
// runs.
func TestRunCompileError(t *testing.T) {
	rs, err := Run(context.Background(), &Spec{Name: "bad"}, runner.Options{})
	if rs != nil || err == nil {
		t.Fatalf("Run(bad spec) = %v, %v; want nil + compile error", rs, err)
	}
}

// TestSeriesFoldsByLabel: multi-axis result sets fold into one series per
// expanded label, each over the task axis.
func TestSeriesFoldsByLabel(t *testing.T) {
	s := &Spec{
		Name:     "fold",
		Variants: []sim.RunConfig{sgprsBase("s")},
		Axes:     []Axis{FPS(20, 30), Tasks(2, 4)},
	}
	rs, err := Run(context.Background(), s, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	series := rs.Series()
	if len(series) != 2 {
		t.Fatalf("series = %v", series)
	}
	for _, label := range []string{"s@fps=20", "s@fps=30"} {
		pts := series[label]
		if len(pts) != 2 || pts[0].Tasks != 2 || pts[1].Tasks != 4 {
			t.Errorf("series[%q] = %+v", label, pts)
		}
	}
	// Lower frame rate offers less load, so it completes fewer frames.
	if series["s@fps=20"][0].Summary.TotalFPS >= series["s@fps=30"][0].Summary.TotalFPS {
		t.Error("fps axis had no effect on results")
	}
}
