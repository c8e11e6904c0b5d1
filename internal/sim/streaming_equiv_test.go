package sim

import (
	"reflect"
	"testing"

	"sgprs/internal/fault"
	"sgprs/internal/memo"
	"sgprs/internal/metrics"
	"sgprs/internal/rt"
	"sgprs/internal/speedup"
	"sgprs/internal/workload"
)

// TestStreamingMatchesBatchScenarios is the streaming-metrics acceptance
// test: the Session path (streaming Collector, recycled jobs, reused
// engine/device) must reproduce the batch reference path (retain every job,
// post-hoc EvaluateSLO) byte for byte across both paper scenarios — every
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
		if got := scenarioSeries(t, scenario, counts, horizon, memo.New()); !reflect.DeepEqual(want, got) {
			t.Errorf("scenario %d: streaming output differs from batch reference", scenario)
		}
	}
}

// TestStreamingMatchesBatchJittered covers the stochastic corners the
// scenario grid misses: sporadic releases, WCET overruns, staggered offsets,
// and a tight deadline factor — all of which move completions further from
// release order. Each configuration runs twice on one offline cache, cold
// then warm, against the uncached batch reference.
func TestStreamingMatchesBatchJittered(t *testing.T) {
	cfgs := []RunConfig{
		{Kind: KindSGPRS, Name: "jittered", ContextSMs: []int{34, 34}, NumTasks: 12,
			ReleaseJitterMS: 3, WorkVariation: 0.2, HorizonSec: 2, Seed: 7},
		{Kind: KindSGPRS, Name: "staggered", ContextSMs: []int{23, 23, 23}, NumTasks: 26,
			Stagger: true, HorizonSec: 2, Seed: 3},
		{Kind: KindNaive, Name: "naive-jit", ContextSMs: []int{34, 34}, NumTasks: 20,
			ReleaseJitterMS: 2, HorizonSec: 2, Seed: 5},
	}
	cache := memo.New()
	for _, cfg := range cfgs {
		want, err := runBatch(cfg)
		if err != nil {
			t.Fatalf("%s batch: %v", cfg.Name, err)
		}
		for _, pass := range []string{"cold", "warm"} {
			got, err := NewSession(cache).Run(cfg)
			if err != nil {
				t.Fatalf("%s streaming (%s cache): %v", cfg.Name, pass, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s: streaming result (%s cache) differs from batch reference\nwant %+v\ngot  %+v",
					cfg.Name, pass, want, got)
			}
		}
	}
}

// batchScenario regenerates a scenario through runBatch — the uncached
// retain-and-EvaluateSLO reference — in scenarioSeries' shape.
func batchScenario(t *testing.T, scenario int, counts []int, horizonSec float64) map[string][]metrics.Point {
	t.Helper()
	np, err := ScenarioContexts(scenario)
	if err != nil {
		t.Fatal(err)
	}
	run := map[string][]metrics.Point{}
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
			res, err := runBatch(cfg)
			if err != nil {
				t.Fatalf("%s n=%d: %v", v.Name, n, err)
			}
			series = append(series, metrics.Point{Tasks: n, Summary: res.Summary})
		}
		run[v.Name] = series
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
// fresh session returns for the same configuration. This is what lets the
// runner hand each worker one long-lived session.
//
// The middle of the sequence stresses the run-start reclaim: an overload run
// leaves thousands of jobs and kernels in flight, which the SGPRS, faulted,
// and fleet runs after it then reuse. The tail stresses the kept online
// set-up: after the fleet, single-device runs of two and three contexts,
// SGPRS and naive, reuse its devices' context structs, its schedulers and
// the generator's chains, under work variation and Poisson arrivals too.
// The last four stress the kept fault injectors: a faulted 3-device fleet,
// a clean GPU, a faulted 2-device fleet on another fault seed, and the
// first fleet again, whose injectors must re-fork their streams, zero their
// counters and re-arm reclaimed pending-fault structs.
func TestSessionReuseBitIdentical(t *testing.T) {
	faultedFleet := func(name string, devices int, seed uint64, window fault.Window) RunConfig {
		return RunConfig{
			Kind: KindSGPRS, Name: name, ContextSMs: []int{23, 23, 23},
			NumTasks: 18, HorizonSec: 1.97, Seed: 3, Devices: devices, Failover: rt.FailoverRetry,
			Faults: &fault.Config{
				Seed:        seed,
				Overrun:     &fault.Overrun{Model: fault.OverrunHeavyTail, Factor: 1.5},
				Transient:   &fault.Transient{Prob: 0.5, Policy: "retry", MaxRetries: 2},
				Degradation: []fault.Window{window},
			},
		}
	}
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
		{Kind: KindSGPRS, Name: "h", ContextSMs: []int{34, 34}, NumTasks: 12, HorizonSec: 2, Seed: 5},
		{Kind: KindSGPRS, Name: "i", ContextSMs: []int{23, 23, 23}, NumTasks: 30, HorizonSec: 2, Seed: 6},
		{Kind: KindNaive, Name: "j", ContextSMs: []int{23, 23, 23}, NumTasks: 12, HorizonSec: 2, WorkVariation: 0.2, Seed: 7},
		{Kind: KindSGPRS, Name: "k", ContextSMs: []int{34, 34}, NumTasks: 8, HorizonSec: 2, WorkVariation: 0.2, Arrival: workload.Poisson{}, Seed: 8},
		{Kind: KindNaive, Name: "b", ContextSMs: []int{34, 34}, NumTasks: 8, HorizonSec: 2, Seed: 1}, // repeat of the second
		faultedFleet("l", 3, 0, fault.Window{StartSec: 0.6, EndSec: 1.3, SMs: 40}),
		{Kind: KindSGPRS, Name: "m", ContextSMs: []int{34, 34}, NumTasks: 10, HorizonSec: 2, Seed: 2},
		faultedFleet("n", 2, 17, fault.Window{StartSec: 1, EndSec: 1.8, SMs: 30}),
		faultedFleet("l", 3, 0, fault.Window{StartSec: 0.6, EndSec: 1.3, SMs: 40}), // repeat of the first fleet
	}
	cache := memo.New()
	sess := NewSession(cache)
	for i, cfg := range cfgs {
		want, err := NewSession(cache).Run(cfg)
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

// TestWarmSessionAllocsFlatInTasks: a warm session keeps its whole online
// set-up — schedulers, generator chains, RNG streams, arrival processes,
// contexts and streams — so a rerun allocates the same small number of times
// whether it releases 8 tasks or 30.
func TestWarmSessionAllocsFlatInTasks(t *testing.T) {
	allocs := func(tasks int) float64 {
		cfg := RunConfig{Kind: KindSGPRS, Name: "flat", ContextSMs: []int{23, 23, 23}, NumTasks: tasks, HorizonSec: 1, WarmUpSec: 0.2, Seed: 1}
		sess := NewSession(memo.New())
		if _, err := sess.Run(cfg); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := sess.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a8, a30 := allocs(8), allocs(30); a8 != a30 {
		t.Errorf("warm-session rerun allocates %v times at 8 tasks and %v at 30; want equal", a8, a30)
	}
}

// TestSessionReclaimAllocs pins the run-start reclaim: once a session has run
// the overload configuration, running it again allocates none of the jobs,
// stage slabs, or kernels it left in flight. The bound is the whole run's
// remaining allocation count — 3 at the time of writing, since the session
// keeps its online set-up — plus headroom. Re-allocating the in-flight
// population would carve it anew from the job, stage and kernel arenas,
// whose chunks grow geometrically: with the 2,000-plus kernels the test
// requires in flight, a pool that reclaims no job costs 7 allocations per
// rerun.
func TestSessionReclaimAllocs(t *testing.T) {
	cfg := overloadConfig()
	sess := NewSession(memo.New())
	if _, err := sess.Run(cfg); err != nil {
		t.Fatal(err)
	}
	var inFlight int
	sess.devs[0].ForEachKernelArg(func(any) { inFlight++ })
	const bound = 5
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
