package sgprs_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"sgprs"
	"sgprs/internal/memo"
	"sgprs/internal/sim"
)

// TestFacadeQuickstart exercises the public API end to end, exactly as the
// package documentation advertises.
func TestFacadeQuickstart(t *testing.T) {
	res, err := sgprs.Run(sgprs.RunConfig{
		Kind:       sgprs.KindSGPRS,
		ContextSMs: []int{34, 34},
		NumTasks:   4,
		HorizonSec: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.TotalFPS < 110 || res.Summary.TotalFPS > 130 {
		t.Errorf("fps = %v, want ~120", res.Summary.TotalFPS)
	}
	if res.Summary.Missed != 0 {
		t.Errorf("missed = %d at light load", res.Summary.Missed)
	}
}

// TestFacadeSession: repeated runs through one Session must match one-shot
// Run calls exactly — the documented reuse contract.
func TestFacadeSession(t *testing.T) {
	cfg := sgprs.RunConfig{
		Kind:       sgprs.KindSGPRS,
		ContextSMs: []int{34, 34},
		NumTasks:   4,
		HorizonSec: 2,
	}
	want, err := sgprs.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := sgprs.NewSession()
	for i := 0; i < 3; i++ {
		got, err := sess.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("session run %d = %+v, want %+v", i, got, want)
		}
	}
}

// TestFacadeSweepAndPivot: a one-variant experiment over a task axis is
// the facade's series sweep; its series feed the pivot and saturation
// helpers.
func TestFacadeSweepAndPivot(t *testing.T) {
	rs, err := sgprs.RunExperiment(context.Background(), &sgprs.Experiment{
		Variants: []sgprs.RunConfig{{
			Kind:       sgprs.KindSGPRS,
			Name:       "sgprs",
			ContextSMs: sgprs.ContextPool(2, 1.5, 68),
			NumTasks:   1,
			HorizonSec: 2,
		}},
		Axes: []sgprs.ExperimentAxis{sgprs.TasksAxis(2, 4)},
	}, sgprs.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	series := rs.Series()["sgprs"]
	if got := sgprs.PivotPoint(series); got != 4 {
		t.Errorf("pivot = %d, want 4", got)
	}
	if got := sgprs.SaturationFPS(series); got < 110 {
		t.Errorf("saturation = %v", got)
	}
}

// TestFacadeExperimentRegistry: the registry ships the paper's scenarios
// and the built-in studies, and RunExperiment streams results under a
// context.
func TestFacadeExperimentRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, e := range sgprs.Experiments() {
		names[e.Name] = true
	}
	for _, want := range []string{"scenario1", "scenario2", "ablation-grid", "jitter-ladder", "oversubscription"} {
		if !names[want] {
			t.Errorf("registry is missing built-in %q", want)
		}
	}

	spec, ok := sgprs.LookupExperiment("jitter-ladder")
	if !ok {
		t.Fatal("jitter-ladder not registered")
	}
	// Shrink the clone to smoke scale; the registry master is unaffected.
	spec.Axes = []sgprs.ExperimentAxis{sgprs.JitterAxis(0, 5), sgprs.TasksAxis(2)}
	for i := range spec.Variants {
		spec.Variants[i].HorizonSec = 2
	}
	var streamed int
	rs, err := sgprs.RunExperiment(context.Background(), spec, sgprs.SweepOptions{
		Progress: func(done, total int, r sgprs.SweepJobResult) { streamed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != 2 || len(rs.Results) != 2 {
		t.Errorf("streamed %d / results %d, want 2/2", streamed, len(rs.Results))
	}
	series := rs.Series()
	if len(series["sgprs@jit=0"]) != 1 || len(series["sgprs@jit=5"]) != 1 {
		t.Errorf("series = %v, want one point per jitter level", series)
	}
}

// TestFacadeScenarioBitIdentical is the pinned acceptance test at the
// facade: RunExperiment over ScenarioExperiment regenerates scenarios 1 and
// 2 bit-identically to running the same cells in order on one Session over a
// fresh offline cache, at worker counts 1, 2, and 4.
func TestFacadeScenarioBitIdentical(t *testing.T) {
	counts := []int{2, 4}
	const horizon = 2
	for _, scenario := range []int{1, 2} {
		spec, err := sgprs.ScenarioExperiment(scenario, counts, horizon, 1)
		if err != nil {
			t.Fatal(err)
		}
		sess := sim.NewSession(memo.New())
		var ref []sgprs.Result
		for _, v := range spec.Variants {
			for _, n := range counts {
				v.NumTasks = n
				res, err := sess.Run(v)
				if err != nil {
					t.Fatal(err)
				}
				ref = append(ref, res)
			}
		}
		for _, workers := range []int{1, 2, 4} {
			rs, err := sgprs.RunExperiment(context.Background(), spec, sgprs.SweepOptions{Jobs: workers})
			if err != nil {
				t.Fatalf("scenario %d workers=%d: %v", scenario, workers, err)
			}
			got := make([]sgprs.Result, len(rs.Results))
			for i, r := range rs.Results {
				got[i] = r.Result
			}
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("scenario %d workers=%d: experiment output differs from the sequential session", scenario, workers)
			}
		}
	}
}

// TestFacadeSweepGridDuplicates: a grid experiment rejects duplicate variant
// names at compile time instead of silently merging their series.
func TestFacadeSweepGridDuplicates(t *testing.T) {
	base := sgprs.RunConfig{
		Kind:       sgprs.KindSGPRS,
		Name:       "dup",
		ContextSMs: sgprs.ContextPool(2, 1.5, 68),
		NumTasks:   1,
		HorizonSec: 2,
	}
	rs, err := sgprs.RunExperiment(context.Background(), &sgprs.Experiment{
		Name:     "dups",
		Variants: []sgprs.RunConfig{base, base},
		Axes:     []sgprs.ExperimentAxis{sgprs.TasksAxis(2)},
	}, sgprs.SweepOptions{})
	if err == nil || !strings.Contains(err.Error(), `duplicate variant name "dup"`) || rs != nil {
		t.Fatalf("duplicate variant names: result %v, err %v", rs, err)
	}
}
