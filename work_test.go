package sgprs_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"sgprs"
	"sgprs/internal/fault"
	"sgprs/internal/memo"
	"sgprs/internal/metrics"
	"sgprs/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/work.txt from the current code")

const workFile = "testdata/work.txt"

const workHeader = `# Exact host-side work per gated workload: one line per case of the work
# table (work_test.go), the sim.Session.Stats counters of one op. Regenerate
# with: go test -run TestWorkGate -update .
`

// workCase is one workload the perf harness measures. BenchmarkX/y times the
// case named "X/y"; TestWorkGate counts its allocations and pins its work
// counters.
type workCase struct {
	name string
	// allocs is allocsPerOp of op when the budget was recorded;
	// TestWorkGate fails above 1.25× it, so a budget of 0 allows none.
	allocs float64
	setup  workSetup
}

// workSetup builds a case's reused state outside the measured op and
// returns the op — one unit of the workload — and work, which reports the
// exact work counters of the op's last run.
type workSetup func(tb testing.TB) (op func() sim.Result, work func() sim.Stats)

// workCases is the gated workload table. Budgets were recorded with
// `go test -run TestWorkGate -v .`, which logs every case's allocs/op.
var workCases = []workCase{
	{name: "SingleRun/warm-offline", allocs: 230, setup: func(tb testing.TB) (func() sim.Result, func() sim.Stats) {
		return freshSessions(tb, singleRunConfig(), warmCache(tb, singleRunConfig()))
	}},
	// The steady-state path: one Session reused across runs, as every
	// sweep worker does. Engine, device, job pool, and task structures all
	// survive between ops.
	{name: "SingleRun/warm-session", allocs: 0, setup: func(tb testing.TB) (func() sim.Result, func() sim.Stats) {
		return warmSession(tb, singleRunConfig())
	}},
	// The same run with per-job work variation: every launch scales its
	// work, which must cost no more allocations than the unscaled run.
	{name: "SingleRun/work-variation", allocs: 0, setup: func(tb testing.TB) (func() sim.Result, func() sim.Stats) {
		cfg := singleRunConfig()
		cfg.WorkVariation = 0.2
		return warmSession(tb, cfg)
	}},
	{name: "ScenarioRegeneration/cold-offline", allocs: 924, setup: func(tb testing.TB) (func() sim.Result, func() sim.Stats) {
		return regenerate(tb, func() sgprs.SweepOptions { return sgprs.SweepOptions{Jobs: 1, Cache: memo.New()} })
	}},
	{name: "ScenarioRegeneration/warm-offline", allocs: 338, setup: func(tb testing.TB) (func() sim.Result, func() sim.Stats) {
		warm := sgprs.SweepOptions{Jobs: 1, Cache: memo.New()}
		op, work := regenerate(tb, func() sgprs.SweepOptions { return warm })
		op() // populate the cache outside the measured op
		return op, work
	}},
	{name: "LongHorizon/horizon-2s", allocs: 0, setup: longHorizon(2)},
	{name: "LongHorizon/horizon-60s", allocs: 0, setup: longHorizon(60)},
	{name: "LongHorizon/horizon-600s", allocs: 0, setup: longHorizon(600)},
	{name: "OverloadTail/sgprs-1.5x", allocs: 249, setup: func(tb testing.TB) (func() sim.Result, func() sim.Stats) {
		return freshSessions(tb, overloadConfig(), memo.Default())
	}},
	{name: "OverloadTail/naive", allocs: 293, setup: func(tb testing.TB) (func() sim.Result, func() sim.Stats) {
		return freshSessions(tb, overloadNaiveConfig(), memo.Default())
	}},
	// The naive overload rerun on one session: its backlog leaves
	// thousands of jobs and kernels in flight, all reclaimed.
	{name: "OverloadTail/naive-warm", allocs: 0, setup: func(tb testing.TB) (func() sim.Result, func() sim.Stats) {
		return warmSession(tb, overloadNaiveConfig())
	}},
	{name: "SteadyState/fast-forward", allocs: 0, setup: steadyState(false)},
	{name: "SteadyState/full-sim", allocs: 0, setup: steadyState(true)},
	{name: "FleetFailover/clean", allocs: 357, setup: fleetFailover(sgprs.FailoverDefault, false, false)},
	{name: "FleetFailover/migrate", allocs: 378, setup: fleetFailover(sgprs.FailoverMigrate, true, false)},
	{name: "FleetFailover/retry", allocs: 390, setup: fleetFailover(sgprs.FailoverRetry, true, false)},
	{name: "FleetFailover/shed", allocs: 364, setup: fleetFailover(sgprs.FailoverShed, true, false)},
	// The crashed retry fleet rerun on one session, its fault injectors
	// kept; the one allocation left is the result's per-device
	// utilization slice.
	{name: "FleetFailover/retry-warm", allocs: 1, setup: fleetFailover(sgprs.FailoverRetry, true, true)},
}

// singleRunConfig is the allocation microbenchmark's run: SGPRS 1.5x at a
// saturating load (Scenario 2 pool, 26 tasks) over a 2 s horizon.
func singleRunConfig() sgprs.RunConfig {
	cfg := ablationBase()
	cfg.HorizonSec = 2
	return cfg
}

// overloadConfig is the headline cell of the overload-tail registry entry:
// SGPRS 1.5x under Poisson arrivals at 1.5x the tasks' natural rate with a
// one-frame SLO.
func overloadConfig() sgprs.RunConfig {
	cfg := ablationBase()
	cfg.Arrival = sgprs.PoissonArrival(45) // 1.5x the 30 fps natural rate
	cfg.SLOMS = 1000.0 / 30.0
	return cfg
}

// overloadNaiveConfig is overloadConfig under the naive baseline on three
// full-device partitions.
func overloadNaiveConfig() sgprs.RunConfig {
	cfg := overloadConfig()
	cfg.Kind = sgprs.KindNaive
	cfg.Name = "naive"
	cfg.ContextSMs = sgprs.ContextPool(3, 1.0, 68)
	return cfg
}

// mustRun runs cfg on sess, failing tb on error.
func mustRun(tb testing.TB, sess *sim.Session, cfg sgprs.RunConfig) sim.Result {
	res, err := sess.Run(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// warmCache returns an offline cache already holding cfg's graph and
// profiles.
func warmCache(tb testing.TB, cfg sgprs.RunConfig) *memo.Cache {
	cache := memo.New()
	mustRun(tb, sim.NewSession(cache), cfg)
	return cache
}

// freshSessions runs cfg on a new session per op over cache — what
// sgprs.Run does over memo.Default.
func freshSessions(tb testing.TB, cfg sgprs.RunConfig, cache *memo.Cache) (func() sim.Result, func() sim.Stats) {
	var last *sim.Session
	op := func() sim.Result {
		last = sim.NewSession(cache)
		return mustRun(tb, last, cfg)
	}
	return op, func() sim.Stats { return last.Stats() }
}

// warmSession runs cfg on one session that has already run it once.
func warmSession(tb testing.TB, cfg sgprs.RunConfig) (func() sim.Result, func() sim.Stats) {
	sess := sim.NewSession(memo.New())
	mustRun(tb, sess, cfg) // populate caches and pools outside the measured op
	return func() sim.Result { return mustRun(tb, sess, cfg) }, sess.Stats
}

// regenerate regenerates Scenario 1's 4-variant × {8, 16, 24}-task grid at
// a 2 s horizon through the experiment runner, under the options opts
// returns per op. The runner's worker sessions are out of reach, so the
// work counters are the cells' counters summed over a run of the same jobs
// on one session.
func regenerate(tb testing.TB, opts func() sgprs.SweepOptions) (func() sim.Result, func() sim.Stats) {
	spec, err := sgprs.ScenarioExperiment(1, []int{8, 16, 24}, 2, 1)
	if err != nil {
		tb.Fatal(err)
	}
	op := func() sim.Result {
		if _, err := sgprs.RunExperiment(context.Background(), spec, opts()); err != nil {
			tb.Fatal(err)
		}
		return sim.Result{}
	}
	work := func() sim.Stats {
		c, err := spec.Compile()
		if err != nil {
			tb.Fatal(err)
		}
		var sum sim.Stats
		sess := sim.NewSession(memo.New())
		for _, j := range c.Jobs {
			mustRun(tb, sess, j.Config)
			st := sess.Stats()
			sum.Fired += st.Fired
			sum.HeapPushes += st.HeapPushes
			sum.Sweeps += st.Sweeps
			sum.Visits += st.Visits
			sum.Adds += st.Adds
			sum.Cycles += st.Cycles
			sum.Jumps += st.Jumps
			sum.SortFallbacks += st.SortFallbacks
			sum.SortedResponses += st.SortedResponses
			sum.ReplayWrites += st.ReplayWrites
		}
		return sum
	}
	return op, work
}

// longHorizon is the saturating fast-forward-eligible run over sec
// simulated seconds on a warm session.
func longHorizon(sec float64) workSetup {
	return func(tb testing.TB) (func() sim.Result, func() sim.Stats) {
		cfg := ffEligible(ablationBase())
		cfg.HorizonSec = sec
		return warmSession(tb, cfg)
	}
}

// steadyState is the eligible 60 s run on a warm session, fast-forwarded
// or (full) simulated in full as its ineligible twin: an empty fault.Config
// injects nothing, bit-identical to nil Faults, but keeps the run off the
// fast-forward path.
func steadyState(full bool) workSetup {
	return func(tb testing.TB) (func() sim.Result, func() sim.Stats) {
		cfg := ffEligible(ablationBase())
		cfg.HorizonSec = 60
		if full {
			cfg.Faults = &fault.Config{}
		}
		sess := sim.NewSession(memo.New())
		if ff := mustRun(tb, sess, cfg).FastForward; full && ff != (metrics.FFStats{}) {
			tb.Fatalf("the full-simulation twin fast-forwarded: %+v", ff)
		}
		return func() sim.Result { return mustRun(tb, sess, cfg) }, sess.Stats
	}
}

// fleetFailover is a 3-device fleet under the given failover policy that,
// when crashed, loses device 1 at 2 s and recovers it at 2.5 s — inside the
// 3 s horizon, so retry's blackout ends and its held releases run before
// the horizon, which sets it apart from shed. Each op runs on a new session,
// or with warm on one session that has run it before.
func fleetFailover(policy sgprs.FailoverPolicy, crashed, warm bool) workSetup {
	return func(tb testing.TB) (func() sim.Result, func() sim.Stats) {
		cfg := ablationBase()
		cfg.Name = "fleet"
		cfg.ContextSMs = sgprs.ContextPool(3, 1.0, 68)
		cfg.Devices = 3
		cfg.AdmitCeiling = 0.7
		cfg.Failover = policy
		if crashed {
			cfg.Faults = &fault.Config{
				DeviceFaults: []fault.DeviceFault{{Device: 1, StartSec: 2, RestartSec: 2.5}},
			}
		}
		if warm {
			return warmSession(tb, cfg)
		}
		return freshSessions(tb, cfg, memo.Default())
	}
}

// workLine formats one case's counters for testdata/work.txt.
func workLine(name string, st sim.Stats) string {
	return fmt.Sprintf("%s fired=%d heap_pushes=%d sweeps=%d visits=%d replay_adds=%d replay_cycles=%d binade_jumps=%d sort_fallbacks=%d sorted_responses=%d replay_writes=%d\n",
		name, st.Fired, st.HeapPushes, st.Sweeps, st.Visits, st.Adds, st.Cycles, st.Jumps,
		st.SortFallbacks, st.SortedResponses, st.ReplayWrites)
}

// allocsPerOp is testing.AllocsPerRun(1, op) with the garbage collector
// off. A GC cycle that overlaps the op allocates on the runtime's own
// goroutines (a sudog in gcMarkDone, the background scavenger's timer),
// which the count would include; debug.SetGCPercent(-1) waits out a cycle
// in progress and starts none until the old setting is back. Every
// allocation the op makes still counts.
func allocsPerOp(op func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(1, op)
}

// TestWorkGate is the perf gate over the work table. Per case it fails when
// allocations per op exceed 1.25× the recorded budget (skipped under -race,
// which allocates on its own), and when the exact work counters of an op
// differ from testdata/work.txt: a change in events fired, heap pushes,
// rate sweeps, kernels visited or replay work shows up as a reviewed diff
// of that file (-update rewrites it).
func TestWorkGate(t *testing.T) {
	var b strings.Builder
	b.WriteString(workHeader)
	for _, c := range workCases {
		op, work := c.setup(t)
		if raceEnabled {
			op()
		} else {
			got := allocsPerOp(func() { op() })
			t.Logf("%s: %.0f allocs/op (budget %.0f)", c.name, got, c.allocs)
			if limit := 1.25 * c.allocs; got > limit {
				t.Errorf("%s: %.0f allocs/op, above 1.25 × the recorded %.0f", c.name, got, c.allocs)
			}
		}
		b.WriteString(workLine(c.name, work()))
	}
	got := b.String()

	path := filepath.FromSlash(workFile)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record the counters)", err)
	}
	if got == string(want) {
		return
	}
	t.Errorf("work counters differ from %s (an intended change is recorded with -update):", workFile)
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
