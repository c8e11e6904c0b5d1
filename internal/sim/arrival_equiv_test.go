package sim

import (
	"reflect"
	"runtime/debug"
	"testing"

	"sgprs/internal/memo"
	"sgprs/internal/speedup"
	"sgprs/internal/workload"
)

// TestNilArrivalBitIdenticalScenarios: a nil Arrival means Periodic{}, so
// the two must agree byte for byte across both paper scenario grids — every
// variant, every task count, every float bit. Periodic{Rate: 1} is the same
// process spelled differently and must agree too. The golden digests in
// internal/exp pin the absolute results.
func TestNilArrivalBitIdenticalScenarios(t *testing.T) {
	counts := []int{4, 12, 24}
	const horizon = 2
	cache := memo.New()
	for _, scenario := range []int{1, 2} {
		np, err := ScenarioContexts(scenario)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range ScenarioVariants() {
			for _, n := range counts {
				cfg := RunConfig{
					Kind:       v.Kind,
					Name:       v.Name,
					ContextSMs: ContextPool(np, v.OS, speedup.DeviceSMs),
					HorizonSec: horizon,
					Seed:       1,
					NumTasks:   n,
				}
				want, err := NewSession(cache).Run(cfg)
				if err != nil {
					t.Fatalf("scenario %d %s n=%d nil arrival: %v", scenario, v.Name, n, err)
				}
				for _, a := range []workload.Arrival{workload.Periodic{}, workload.Periodic{Rate: 1}} {
					cfg.Arrival = a
					got, err := NewSession(cache).Run(cfg)
					if err != nil {
						t.Fatalf("scenario %d %s n=%d %+v arrival: %v", scenario, v.Name, n, a, err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("scenario %d %s n=%d: %+v differs from nil arrival\nwant %+v\ngot  %+v",
							scenario, v.Name, n, a, want.Summary, got.Summary)
					}
				}
			}
		}
	}
}

// TestNilArrivalBitIdenticalJittered covers the stochastic corners: release
// jitter and work variation interleave draws on the same per-task RNG
// stream, so the nil default must start the periodic process on exactly the
// stream an explicit Periodic{} gets. The golden digests' nil-arrival cells
// pin the interleaving itself, including the final beyond-horizon draw.
func TestNilArrivalBitIdenticalJittered(t *testing.T) {
	cfgs := []RunConfig{
		{Kind: KindSGPRS, Name: "jittered", ContextSMs: []int{34, 34}, NumTasks: 12,
			ReleaseJitterMS: 3, WorkVariation: 0.2, HorizonSec: 2, Seed: 7},
		{Kind: KindSGPRS, Name: "staggered", ContextSMs: []int{23, 23, 23}, NumTasks: 26,
			Stagger: true, HorizonSec: 2, Seed: 3},
		{Kind: KindNaive, Name: "naive-jit", ContextSMs: []int{34, 34}, NumTasks: 20,
			ReleaseJitterMS: 2, HorizonSec: 2, Seed: 5},
	}
	for _, cfg := range cfgs {
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s nil arrival: %v", cfg.Name, err)
		}
		cfg.Arrival = workload.Periodic{}
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s periodic arrival: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: Periodic{} differs from nil arrival\nwant %+v\ngot  %+v",
				cfg.Name, want.Summary, got.Summary)
		}
	}
}

// TestOpenLoopStreamingMatchesBatch extends the streaming-vs-batch identity
// to open-loop traffic: under Poisson overload with drops, an SLO, and
// backlog buildup, the Session path (streaming Collector, recycled jobs)
// must reproduce the batch path (retain all jobs, EvaluateSLO) byte for
// byte — the same invariant the closed-loop streaming tests pin.
func TestOpenLoopStreamingMatchesBatch(t *testing.T) {
	trace := workload.SyntheticTrace("equiv", 5, 90, 2, 6)
	cfgs := []RunConfig{
		{Kind: KindSGPRS, Name: "poisson-overload", ContextSMs: []int{23, 23, 23}, NumTasks: 12,
			Arrival: workload.Poisson{Rate: 50}, SLOMS: 40, HorizonSec: 2, Seed: 7},
		{Kind: KindNaive, Name: "naive-poisson", ContextSMs: []int{34, 34}, NumTasks: 8,
			Arrival: workload.Poisson{}, SLOMS: 33.4, HorizonSec: 2, Seed: 2},
		{Kind: KindSGPRS, Name: "bursty", ContextSMs: []int{34, 34}, NumTasks: 10,
			Arrival: workload.Bursty{OnSec: 0.3, OffSec: 0.3}, WorkVariation: 0.15, HorizonSec: 2, Seed: 4},
		{Kind: KindSGPRS, Name: "trace", ContextSMs: []int{34, 34}, NumTasks: 6,
			Arrival: workload.Trace{Data: trace}, SLOMS: 50, HorizonSec: 2, Seed: 9},
	}
	sess := NewSession(memo.New())
	for _, cfg := range cfgs {
		want, err := runBatch(cfg)
		if err != nil {
			t.Fatalf("%s batch: %v", cfg.Name, err)
		}
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s streaming: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: streaming result differs from batch reference\nwant %+v\ngot  %+v",
				cfg.Name, want.Summary, got.Summary)
		}
		sessGot, err := sess.Run(cfg)
		if err != nil {
			t.Fatalf("%s session: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(want, sessGot) {
			t.Errorf("%s: session result differs from batch reference\nwant %+v\ngot  %+v",
				cfg.Name, want.Summary, sessGot.Summary)
		}
	}
}

// TestOpenLoopExercisesOverloadMetrics guards the test above against
// vacuity: at least one configuration must actually drop jobs, build a
// backlog, and split completions across the SLO.
func TestOpenLoopExercisesOverloadMetrics(t *testing.T) {
	cfg := RunConfig{
		Kind: KindSGPRS, Name: "hot", ContextSMs: []int{23, 23, 23}, NumTasks: 16,
		Arrival: workload.Poisson{Rate: 60}, SLOMS: 33.4, HorizonSec: 2, Seed: 1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.Dropped == 0 || s.DropRate == 0 {
		t.Errorf("overload run dropped nothing: %+v", s)
	}
	if s.QueueDepthMax == 0 || s.QueueDepthMean == 0 {
		t.Errorf("overload run shows no backlog: %+v", s)
	}
	if s.SLOHitRate <= 0 || s.SLOHitRate >= 1 {
		t.Errorf("SLO hit rate %v does not split completions", s.SLOHitRate)
	}
	if s.RespP999MS < s.RespP99MS || s.RespP99MS < s.RespP50MS {
		t.Errorf("quantiles out of order: p50=%v p99=%v p999=%v", s.RespP50MS, s.RespP99MS, s.RespP999MS)
	}
}

// TestWarmSessionArrivalsAllocateNothing: every arrival process starts in
// its release chain's slot, so a rerun on a warm session allocates nothing
// under any of the six kinds, nor under the rate-scaled natural-rate ones.
// The garbage collector is off while counting, so a GC cycle overlapping
// the run cannot add the runtime's own allocations.
func TestWarmSessionArrivalsAllocateNothing(t *testing.T) {
	arrivals := []workload.Arrival{
		workload.Periodic{},
		workload.Poisson{},
		workload.Bursty{OnSec: 0.2, OffSec: 0.1},
		workload.MMPP{RatesPerSec: []float64{10, 60}, MeanSojournSec: []float64{0.2, 0.1}},
		workload.Diurnal{PeriodSec: 0.5},
		workload.Trace{Data: workload.SyntheticTrace("warm", 3, 60, 1, 8)},
		workload.Poisson{}.Scale(1.5),
		workload.Bursty{OnSec: 0.2, OffSec: 0.1}.Scale(1.5),
		workload.Diurnal{PeriodSec: 0.5}.Scale(1.5),
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, a := range arrivals {
		cfg := RunConfig{Kind: KindSGPRS, Name: "warm", ContextSMs: []int{34, 34}, NumTasks: 8,
			Arrival: a, HorizonSec: 1, WarmUpSec: 0.2, Seed: 1}
		sess := NewSession(memo.New())
		if _, err := sess.Run(cfg); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := sess.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm-session rerun allocates %v times, want 0", a.Name(), allocs)
		}
	}
}
