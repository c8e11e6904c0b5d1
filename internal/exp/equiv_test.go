package exp

import (
	"context"
	"reflect"
	"testing"

	"sgprs/internal/memo"
	"sgprs/internal/runner"
	"sgprs/internal/sim"
	"sgprs/internal/speedup"
)

// equivCounts/equivHorizon keep the equivalence sweeps fast while still
// crossing every variant (see runner's determinism tests for the scale
// rationale).
var equivCounts = []int{2, 4}

const equivHorizon = 2

// scenarioJobs is the scenario grid written out by hand: every paper
// variant, task counts innermost, the base seed on every job.
func scenarioJobs(t *testing.T, scenario int) []runner.Job {
	t.Helper()
	np, err := sim.ScenarioContexts(scenario)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []runner.Job
	for _, v := range sim.ScenarioVariants() {
		for _, n := range equivCounts {
			jobs = append(jobs, runner.Job{Variant: v.Name, Tasks: n, Config: sim.RunConfig{
				Kind:       v.Kind,
				Name:       v.Name,
				ContextSMs: sim.ContextPool(np, v.OS, speedup.DeviceSMs),
				HorizonSec: equivHorizon,
				Seed:       1,
				NumTasks:   n,
			}})
		}
	}
	return jobs
}

// sequentialSeries runs a job list in order on one session over a fresh
// offline cache and folds it into per-variant series — the pool-free
// reference the spec runs are compared against.
func sequentialSeries(t *testing.T, jobs []runner.Job) ([]string, map[string][]sim.Result) {
	t.Helper()
	sess := sim.NewSession(memo.New())
	var order []string
	series := map[string][]sim.Result{}
	for _, j := range jobs {
		res, err := sess.Run(j.Config)
		if err != nil {
			t.Fatalf("%s n=%d: %v", j.Variant, j.Tasks, err)
		}
		if _, ok := series[j.Variant]; !ok {
			order = append(order, j.Variant)
		}
		series[j.Variant] = append(series[j.Variant], res)
	}
	return order, series
}

// specSeries folds an executed spec the same way.
func specSeries(rs *ResultSet) map[string][]sim.Result {
	series := map[string][]sim.Result{}
	for _, r := range rs.Results {
		series[r.Job.Variant] = append(series[r.Job.Variant], r.Result)
	}
	return series
}

// TestScenarioSpecCompilesToLegacyJobs: the scenario spec expands to
// byte-for-byte the job list written out by hand — the strongest form of
// the expansion claim, without running a single simulation.
func TestScenarioSpecCompilesToLegacyJobs(t *testing.T) {
	for _, scenario := range []int{1, 2} {
		spec, err := Scenario(scenario, equivCounts, equivHorizon, 1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if want := scenarioJobs(t, scenario); !reflect.DeepEqual(c.Jobs, want) {
			t.Errorf("scenario %d: compiled jobs differ from the hand-written expansion\n spec: %+v\n want: %+v",
				scenario, c.Jobs, want)
		}
	}
}

// TestScenarioSpecBitIdentical: the spec-driven regeneration of scenarios 1
// and 2 is bit-identical to running the same cells in order on one session
// over a fresh offline cache, at worker counts 1, 2, and 4.
func TestScenarioSpecBitIdentical(t *testing.T) {
	for _, scenario := range []int{1, 2} {
		order, ref := sequentialSeries(t, scenarioJobs(t, scenario))
		spec, err := Scenario(scenario, equivCounts, equivHorizon, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			rs, err := Run(context.Background(), spec, runner.Options{Jobs: workers})
			if err != nil {
				t.Fatalf("scenario %d workers=%d: %v", scenario, workers, err)
			}
			if !reflect.DeepEqual(rs.Order, order) || !reflect.DeepEqual(rs.TaskCounts, equivCounts) {
				t.Errorf("scenario %d workers=%d: order %v / counts %v", scenario, workers, rs.Order, rs.TaskCounts)
			}
			if !reflect.DeepEqual(specSeries(rs), ref) {
				t.Errorf("scenario %d workers=%d: spec-driven output differs from the sequential reference",
					scenario, workers)
			}
		}
	}
}

// TestSeriesSpecBitIdentical pins a one-variant Series spec the same way.
func TestSeriesSpecBitIdentical(t *testing.T) {
	base := sim.RunConfig{
		Kind:       sim.KindSGPRS,
		Name:       "sgprs",
		ContextSMs: sim.ContextPool(2, 1.5, 68),
		NumTasks:   1,
		HorizonSec: equivHorizon,
		Seed:       1,
	}
	var jobs []runner.Job
	for _, n := range equivCounts {
		cfg := base
		cfg.NumTasks = n
		jobs = append(jobs, runner.Job{Variant: "sgprs", Tasks: n, Config: cfg})
	}
	_, ref := sequentialSeries(t, jobs)
	for _, workers := range []int{1, 2, 4} {
		rs, err := Run(context.Background(), Series(base, equivCounts), runner.Options{Jobs: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := specSeries(rs); !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: series spec differs from sequential reference", workers)
		}
	}
}
