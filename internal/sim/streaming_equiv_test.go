package sim

import (
	"reflect"
	"testing"

	"sgprs/internal/memo"
	"sgprs/internal/metrics"
	"sgprs/internal/rt"
	"sgprs/internal/speedup"
	"sgprs/internal/workload"
)

// TestStreamingMatchesBatchScenarios is the streaming-metrics acceptance
// test: the Session path (streaming Collector, recycled jobs, reused
// engine/device) must reproduce the batch reference path (retain every job,
// post-hoc Evaluate) byte for byte across both paper scenarios — every
// variant, every task count, every float bit of every metric. The grid spans
// the regimes where completion order differs from release order: the naive
// baseline completes FIFO per partition while SGPRS interleaves stages
// across contexts and, past the pivot, drops and replaces frames (the
// Discard path).
func TestStreamingMatchesBatchScenarios(t *testing.T) {
	counts := []int{4, 12, 24}
	const horizon = 2
	for _, scenario := range []int{1, 2} {
		want := batchScenario(t, scenario, counts, horizon)
		got, err := RunScenarioWith(scenario, counts, horizon, 1, memo.New())
		if err != nil {
			t.Fatalf("scenario %d streaming: %v", scenario, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("scenario %d: streaming output differs from batch reference", scenario)
		}
	}
}

// TestStreamingMatchesBatchJittered covers the stochastic corners the
// scenario grid misses: sporadic releases, WCET overruns, staggered offsets,
// and a tight deadline factor — all of which move completions further from
// release order.
func TestStreamingMatchesBatchJittered(t *testing.T) {
	cfgs := []RunConfig{
		{Kind: KindSGPRS, Name: "jittered", ContextSMs: []int{34, 34}, NumTasks: 12,
			ReleaseJitterMS: 3, WorkVariation: 0.2, HorizonSec: 2, Seed: 7},
		{Kind: KindSGPRS, Name: "staggered", ContextSMs: []int{23, 23, 23}, NumTasks: 26,
			Stagger: true, HorizonSec: 2, Seed: 3},
		{Kind: KindNaive, Name: "naive-jit", ContextSMs: []int{34, 34}, NumTasks: 20,
			ReleaseJitterMS: 2, HorizonSec: 2, Seed: 5},
	}
	for _, cfg := range cfgs {
		want, err := runBatch(cfg, nil)
		if err != nil {
			t.Fatalf("%s batch: %v", cfg.Name, err)
		}
		got, err := RunWith(cfg, nil)
		if err != nil {
			t.Fatalf("%s streaming: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: streaming result differs from batch reference\nwant %+v\ngot  %+v",
				cfg.Name, want, got)
		}
	}
}

// batchScenario regenerates a scenario through runBatch — the reference
// retain-and-Evaluate path.
func batchScenario(t *testing.T, scenario int, counts []int, horizonSec float64) *ScenarioRun {
	t.Helper()
	np, err := ScenarioContexts(scenario)
	if err != nil {
		t.Fatal(err)
	}
	run := &ScenarioRun{Scenario: scenario, TaskCounts: counts, Series: map[string][]metrics.Point{}}
	cache := memo.New()
	for _, v := range ScenarioVariants() {
		var series []metrics.Point
		for _, n := range counts {
			cfg := RunConfig{
				Kind:       v.Kind,
				Name:       v.Name,
				ContextSMs: ContextPool(np, v.OS, speedup.DeviceSMs),
				HorizonSec: horizonSec,
				Seed:       1,
				NumTasks:   n,
			}
			res, err := runBatch(cfg, cache)
			if err != nil {
				t.Fatalf("%s n=%d: %v", v.Name, n, err)
			}
			series = append(series, metrics.Point{Tasks: n, Summary: res.Summary})
		}
		run.Series[v.Name] = series
		run.Order = append(run.Order, v.Name)
	}
	return run
}

// overloadConfig is naive under open-loop Poisson arrivals at twice each
// task's natural rate: the partition FIFOs grow without bound, so thousands
// of jobs and kernels are still in flight when the horizon cuts the run.
func overloadConfig() RunConfig {
	return RunConfig{
		Kind: KindNaive, Name: "overload", ContextSMs: []int{23, 23, 23}, NumTasks: 24,
		Arrival: workload.Poisson{Rate: 60}, SLOMS: 1000.0 / 30.0, HorizonSec: 3, Seed: 3,
	}
}

// TestSessionReuseBitIdentical pins the session-reuse invariant: a single
// Session carrying a mixed sequence of configurations — different schedulers,
// pool shapes, task counts, seeds — must return, run for run, exactly what a
// fresh RunWith returns for the same configuration. This is what lets the
// runner hand each worker one long-lived session.
//
// The tail of the sequence stresses the run-start reclaim: an overload run
// leaves thousands of jobs and kernels in flight, which the SGPRS, faulted,
// and fleet runs after it then reuse.
func TestSessionReuseBitIdentical(t *testing.T) {
	cfgs := []RunConfig{
		{Kind: KindSGPRS, Name: "a", ContextSMs: []int{34, 34}, NumTasks: 8, HorizonSec: 2, Seed: 1},
		{Kind: KindNaive, Name: "b", ContextSMs: []int{34, 34}, NumTasks: 8, HorizonSec: 2, Seed: 1},
		{Kind: KindSGPRS, Name: "c", ContextSMs: []int{23, 23, 23}, NumTasks: 26, HorizonSec: 2, Seed: 9},
		{Kind: KindSGPRS, Name: "a", ContextSMs: []int{34, 34}, NumTasks: 8, HorizonSec: 2, Seed: 1}, // repeat of the first
		{Kind: KindSGPRS, Name: "d", ContextSMs: []int{51, 51}, NumTasks: 16, HorizonSec: 3, WarmUpSec: 0.5, Seed: 2},
		overloadConfig(),
		{Kind: KindSGPRS, Name: "e", ContextSMs: []int{34, 34}, NumTasks: 20, HorizonSec: 2, Seed: 4},
		faultedConfig("f", "retry"),
		fleetConfig("g", rt.FailoverMigrate),
	}
	cache := memo.New()
	sess := NewSession(cache)
	for i, cfg := range cfgs {
		want, err := RunWith(cfg, cache)
		if err != nil {
			t.Fatalf("run %d fresh: %v", i, err)
		}
		got, err := sess.Run(cfg)
		if err != nil {
			t.Fatalf("run %d session: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("run %d (%s): session result differs from fresh run\nwant %+v\ngot  %+v",
				i, cfg.Name, want, got)
		}
	}
}

// TestSessionMemoryStaysBounded: after long-horizon runs, the session's
// recycled-object pools must be sized by in-flight work, not by the number
// of jobs or events the horizon produced — the O(active jobs) claim.
func TestSessionMemoryStaysBounded(t *testing.T) {
	cfg := RunConfig{
		Kind: KindSGPRS, Name: "long", ContextSMs: []int{23, 23, 23},
		NumTasks: 26, HorizonSec: 8, Seed: 1,
	}
	sess := NewSession(memo.New())
	if _, err := sess.Run(cfg); err != nil {
		t.Fatal(err)
	}
	// ~26 tasks × 30 fps × 8 s ≈ 6200 jobs flowed through the run. The
	// pool must hold only the handful that were in flight at once.
	if n := sess.pool.Len(); n > 200 {
		t.Errorf("job pool holds %d jobs after an 8s horizon; want O(in-flight)", n)
	}
	if n := sess.eng.FreeEvents(); n > 500 {
		t.Errorf("event free list holds %d events; want O(concurrency)", n)
	}

	// A longer horizon must not grow the pools: steady state was reached.
	before := sess.pool.Len()
	cfg.HorizonSec = 16
	if _, err := sess.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if after := sess.pool.Len(); after > before+50 {
		t.Errorf("job pool grew %d → %d with horizon; retention is not O(active)", before, after)
	}
}

// TestSessionReclaimAllocs pins the run-start reclaim: once a session has run
// the overload configuration, running it again allocates none of the jobs,
// stage slabs, or kernels it left in flight. The bound is the whole run's
// remaining allocation count — scheduler, generator, arrival processes, and
// the like, about 430 at the time of writing — plus headroom. Re-allocating
// the in-flight population alone would cost two allocations per job and one
// per kernel: with the 2,000-plus kernels the test requires in flight, at
// least 6,000.
func TestSessionReclaimAllocs(t *testing.T) {
	cfg := overloadConfig()
	sess := NewSession(memo.New())
	if _, err := sess.Run(cfg); err != nil {
		t.Fatal(err)
	}
	var inFlight int
	sess.dev.ForEachKernelArg(func(any) { inFlight++ })
	const bound = 600
	if inFlight < 2000 {
		t.Fatalf("only %d kernels in flight at the horizon; the pin needs thousands", inFlight)
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := sess.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Errorf("second overload run on one session allocates %v times, want ≤ %d (%d kernels were in flight)",
			allocs, bound, inFlight)
	}
	t.Logf("%v allocs per rerun, %d kernels in flight", allocs, inFlight)
}
