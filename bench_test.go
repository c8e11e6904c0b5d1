// Benchmark harness: one benchmark per table/figure of the paper, plus
// ablation benches for the design choices called out in DESIGN.md §7.
//
// These benches report *experiment* metrics (fps, dmr, pivot) through
// b.ReportMetric alongside the usual ns/op, so a single
//
//	go test -bench=. -benchmem
//
// regenerates every figure's headline numbers. Full-resolution sweeps (all
// task counts, 10 s horizons) are produced by `sgprs sweep`; the benches
// use shorter horizons and the load levels where the paper's claims live.
package sgprs_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"sgprs"
	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/gpu"
	"sgprs/internal/profile"
	"sgprs/internal/sim"
	"sgprs/internal/speedup"
)

// benchCounts are the sweep points the benches sample: the linear ramp, the
// paper's pivot region (23-25), and deep overload.
var benchCounts = []int{8, 16, 23, 25, 28, 30}

const benchHorizon = 3 // simulated seconds per sweep point

// sweepVariant runs one scheduler variant over benchCounts — a one-variant
// experiment — and reports the figure metrics.
func sweepVariant(b *testing.B, scenario int, v sgprs.RunConfig, reportDMR bool) {
	b.Helper()
	spec := &sgprs.Experiment{
		Name:     v.Name,
		Variants: []sgprs.RunConfig{v},
		Axes:     []sgprs.ExperimentAxis{sgprs.TasksAxis(benchCounts...)},
	}
	for i := 0; i < b.N; i++ {
		rs, err := sgprs.RunExperiment(context.Background(), spec, sgprs.SweepOptions{})
		if err != nil {
			b.Fatal(err)
		}
		series := rs.Series()[v.Name]
		if reportDMR {
			b.ReportMetric(series[len(series)-1].Summary.DMR, "dmr@30tasks")
			b.ReportMetric(series[2].Summary.DMR, "dmr@23tasks")
		} else {
			b.ReportMetric(sgprs.SaturationFPS(series), "sat_fps")
			b.ReportMetric(series[len(series)-1].Summary.TotalFPS, "fps@30tasks")
			b.ReportMetric(float64(sgprs.PivotPoint(series)), "pivot_tasks")
		}
	}
}

// scenarioVariants builds the paper's four per-scenario configurations.
func scenarioVariants(scenario int) []sgprs.RunConfig {
	np := 2
	if scenario == 2 {
		np = 3
	}
	mk := func(kind sgprs.Kind, name string, os float64) sgprs.RunConfig {
		return sgprs.RunConfig{
			Kind:       kind,
			Name:       name,
			ContextSMs: sgprs.ContextPool(np, os, 68),
			NumTasks:   1,
			HorizonSec: benchHorizon,
			Seed:       1,
		}
	}
	return []sgprs.RunConfig{
		mk(sgprs.KindNaive, "naive", 1.0),
		mk(sgprs.KindSGPRS, "sgprs-1.0x", 1.0),
		mk(sgprs.KindSGPRS, "sgprs-1.5x", 1.5),
		mk(sgprs.KindSGPRS, "sgprs-2.0x", 2.0),
	}
}

// BenchmarkFig1SpeedupGain regenerates Figure 1: per-operation speedup gain
// measured in isolation on the simulated device, at the full 68 SMs and at
// the half-device point.
func BenchmarkFig1SpeedupGain(b *testing.B) {
	prof := profile.New(speedup.DefaultModel(), gpu.DefaultConfig())
	for _, cl := range speedup.Classes() {
		cl := cl
		b.Run(cl.String(), func(b *testing.B) {
			var g68, g34 float64
			for i := 0; i < b.N; i++ {
				var err error
				g68, err = prof.OperationGain(cl, 50, 68)
				if err != nil {
					b.Fatal(err)
				}
				g34, err = prof.OperationGain(cl, 50, 34)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(g68, "gain@68sm")
			b.ReportMetric(g34, "gain@34sm")
		})
	}
	b.Run("resnet18", func(b *testing.B) {
		g := dnn.ResNet18(dnn.DefaultCostModel())
		var gain float64
		for i := 0; i < b.N; i++ {
			var err error
			gain, err = prof.NetworkGain(g, 68)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(gain, "gain@68sm")
	})
}

// BenchmarkFig3aTotalFPS regenerates Figure 3a: total FPS vs task count in
// Scenario 1 (two contexts).
func BenchmarkFig3aTotalFPS(b *testing.B) {
	for _, v := range scenarioVariants(1) {
		v := v
		b.Run(v.Name, func(b *testing.B) { sweepVariant(b, 1, v, false) })
	}
}

// BenchmarkFig3bDMR regenerates Figure 3b: deadline miss rate vs task count
// in Scenario 1.
func BenchmarkFig3bDMR(b *testing.B) {
	for _, v := range scenarioVariants(1) {
		v := v
		b.Run(v.Name, func(b *testing.B) { sweepVariant(b, 1, v, true) })
	}
}

// BenchmarkFig4aTotalFPS regenerates Figure 4a: total FPS vs task count in
// Scenario 2 (three contexts).
func BenchmarkFig4aTotalFPS(b *testing.B) {
	for _, v := range scenarioVariants(2) {
		v := v
		b.Run(v.Name, func(b *testing.B) { sweepVariant(b, 2, v, false) })
	}
}

// BenchmarkFig4bDMR regenerates Figure 4b: deadline miss rate vs task count
// in Scenario 2.
func BenchmarkFig4bDMR(b *testing.B) {
	for _, v := range scenarioVariants(2) {
		v := v
		b.Run(v.Name, func(b *testing.B) { sweepVariant(b, 2, v, true) })
	}
}

// ablationBase is the configuration ablations perturb: SGPRS 1.5x in
// Scenario 2 at a saturating load (26 tasks).
func ablationBase() sgprs.RunConfig {
	return sgprs.RunConfig{
		Kind:       sgprs.KindSGPRS,
		Name:       "ablation",
		ContextSMs: sgprs.ContextPool(3, 1.5, 68),
		NumTasks:   26,
		HorizonSec: benchHorizon,
		Seed:       1,
	}
}

func runAblation(b *testing.B, cfg sgprs.RunConfig) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := sgprs.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Summary.TotalFPS, "fps")
		b.ReportMetric(res.Summary.DMR, "dmr")
		b.ReportMetric(res.Summary.RespP99MS, "p99_ms")
	}
}

// BenchmarkAblationPriorityLevels (A1): the paper's two-level priority
// assignment versus flattened pure-EDF stages.
func BenchmarkAblationPriorityLevels(b *testing.B) {
	b.Run("two-level", func(b *testing.B) { runAblation(b, ablationBase()) })
	b.Run("flat-edf", func(b *testing.B) {
		cfg := ablationBase()
		cfg.FlattenPriorities = true
		runAblation(b, cfg)
	})
}

// BenchmarkAblationMediumPromotion (A2): the online third priority level on
// versus off.
func BenchmarkAblationMediumPromotion(b *testing.B) {
	b.Run("promotion-on", func(b *testing.B) { runAblation(b, ablationBase()) })
	b.Run("promotion-off", func(b *testing.B) {
		cfg := ablationBase()
		cfg.DisableMediumPromotion = true
		runAblation(b, cfg)
	})
}

// BenchmarkAblationStageCount (A4): pipeline granularity.
func BenchmarkAblationStageCount(b *testing.B) {
	for _, stages := range []int{1, 2, 3, 6, 12} {
		stages := stages
		b.Run(fmt.Sprintf("stages-%d", stages), func(b *testing.B) {
			cfg := ablationBase()
			cfg.Stages = stages
			runAblation(b, cfg)
		})
	}
}

// BenchmarkAblationLateDrop (A6): the temporal-partitioning discipline
// (skip frames that are already lost) on versus off.
func BenchmarkAblationLateDrop(b *testing.B) {
	b.Run("drop-on", func(b *testing.B) { runAblation(b, ablationBase()) })
	b.Run("drop-off", func(b *testing.B) {
		cfg := ablationBase()
		cfg.DisableLateDrop = true
		runAblation(b, cfg)
	})
}

// BenchmarkScenarioRegeneration compares regeneration of a full paper
// scenario (the 4-variant × task-count grid behind Figures 3a/3b) across the
// execution strategies. Outputs are bit-identical across every case (the
// runner's determinism tests and the sim cache-equality tests pin this);
// only wall-clock differs. The two offline cases are work-table cases
// (work_test.go) and run on one worker:
//
//   - cold-offline: a fresh offline cache per iteration, so each distinct
//     shape is profiled once per scenario (intra-run and intra-sweep reuse).
//   - warm-offline: the steady-state path (shared cache, all hits) — what
//     RunExperiment and the CLIs see after their first run.
//   - parallel-jobsN: warm cache through the experiment runner; on a
//     multi-core host wall-clock approaches 1/min(workers, cores, 12 jobs),
//     on a single core it matches sequential to within pool overhead.
func BenchmarkScenarioRegeneration(b *testing.B) {
	benchWork(b, "ScenarioRegeneration", nil)
	spec, err := sgprs.ScenarioExperiment(1, []int{8, 16, 24}, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	workers := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		w := w
		b.Run(fmt.Sprintf("parallel-jobs%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sgprs.RunExperiment(context.Background(), spec, sgprs.SweepOptions{Jobs: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchWork times the work-table cases named group/... (work_test.go) as
// sub-benchmarks: the op TestWorkGate counts, after the same setup. report,
// when set, adds the group's metrics from the last op's result and work
// counters.
func benchWork(b *testing.B, group string, report func(b *testing.B, res sim.Result, st sim.Stats)) {
	for _, c := range workCases {
		sub, ok := strings.CutPrefix(c.name, group+"/")
		if !ok {
			continue
		}
		b.Run(sub, func(b *testing.B) {
			op, work := c.setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			var res sim.Result
			for i := 0; i < b.N; i++ {
				res = op()
			}
			b.StopTimer()
			if report != nil {
				report(b, res, work())
			}
		})
	}
}

// BenchmarkSingleRun is the allocation microbenchmark: one simulation run at
// a saturating load (SGPRS 1.5x, Scenario 2 pool, 26 tasks, 2 s horizon),
// on a fresh session over a warm cache and on a reused session, so per-run
// allocation regressions are visible in isolation, and one run's events
// fired and des heap pushes.
func BenchmarkSingleRun(b *testing.B) {
	benchWork(b, "SingleRun", func(b *testing.B, _ sim.Result, st sim.Stats) {
		b.ReportMetric(float64(st.Fired), "events")
		b.ReportMetric(float64(st.HeapPushes), "heap_pushes")
	})
}

// reportHeap reports one run's des heap work (des.HeapStats): the counters
// that show the event layer's share of a change in host speed.
func reportHeap(b *testing.B, h des.HeapStats) {
	b.ReportMetric(float64(h.Pushes), "heap_pushes")
}

// reportReplay reports one run's fast-forward replay work (sim.Stats): the
// accounting adds performed one by one, the explicit cycles they made up,
// the binade jumps taken instead, the queue-depth sort fallbacks, the
// response times Summary sorted, and the slots the collector's Replay
// wrote.
func reportReplay(b *testing.B, r sim.Stats) {
	b.ReportMetric(float64(r.Adds), "replay_adds")
	b.ReportMetric(float64(r.Cycles), "replay_cycles")
	b.ReportMetric(float64(r.Jumps), "binade_jumps")
	b.ReportMetric(float64(r.SortFallbacks), "sort_fallbacks")
	b.ReportMetric(float64(r.SortedResponses), "sorted_responses")
	b.ReportMetric(float64(r.ReplayWrites), "replay_writes")
}

// ffEligible makes a configuration fast-forward eligible: contention
// jitter — the only stochastic draw inside the device — zeroed, everything
// else the calibrated default, with the seed offset Normalize would apply.
func ffEligible(cfg sgprs.RunConfig) sgprs.RunConfig {
	g := gpu.DefaultConfig()
	g.ContentionJitter = 0
	g.Seed = cfg.Seed + 1
	cfg.GPU = g
	return cfg
}

// BenchmarkLongHorizon is the long-horizon cost benchmark: the same
// saturating workload simulated over 2 s, 60 s, and 600 s horizons through
// a reused Session. With streaming metrics and job recycling, live memory
// is independent of horizon length — before streaming metrics, every
// released job was retained and the 60 s run held ~30× the heap. The
// configuration is fast-forward eligible, so past the first recurrence
// the detector extrapolates whole hyperperiod cycles: the device integrals
// jump whole cycles of adds per binade (stats.RepeatedSum), so their cost
// grows with the binades crossed, not the cycles skipped, and the
// collector keeps the skipped cycles as one stored cycle and a
// multiplicity, so Replay and Summary cost one cycle's work
// (replay_writes, sorted_responses). replay_adds counts the adds still
// performed. TestWorkGate pins each
// horizon's allocs/op and counters, so horizon-proportional allocation
// fails there.
func BenchmarkLongHorizon(b *testing.B) {
	benchWork(b, "LongHorizon", func(b *testing.B, _ sim.Result, st sim.Stats) { reportReplay(b, st) })
}

// BenchmarkSteadyState is the fast-forward headline: the eligible 60 s run
// fast-forwarded versus simulated in full as its ineligible twin (the same
// config with an empty fault.Config). The reference simulates every one of the ~1800 release cycles; fast-forward simulates a
// few dozen boundaries, extrapolates the rest analytically, and the results
// stay bit-identical (TestFastForwardBitIdenticalScenarios pins this).
// cycles_skipped reports how much of the horizon was never simulated, and
// the replay counters (reportReplay) what extrapolating it cost.
func BenchmarkSteadyState(b *testing.B) {
	benchWork(b, "SteadyState", func(b *testing.B, res sim.Result, st sim.Stats) {
		b.ReportMetric(float64(res.FastForward.CyclesSkipped), "cycles_skipped")
		reportReplay(b, st)
	})
}

// BenchmarkOverloadTail is the open-loop overload benchmark (the headline
// cell of the overload-tail registry entry): SGPRS 1.5x versus the naive
// baseline under Poisson arrivals at 1.5x the tasks' natural rate with a
// one-frame SLO. SGPRS sheds the excess through late drops and keeps the
// tail short; naive queues unboundedly and lets p99 grow with the backlog.
// Drop rate, SLO hit rate, and tail latency are reported alongside the
// allocation figures TestWorkGate pins.
func BenchmarkOverloadTail(b *testing.B) {
	benchWork(b, "OverloadTail", func(b *testing.B, res sim.Result, _ sim.Stats) {
		s := res.Summary
		b.ReportMetric(s.DropRate, "drop_rate")
		b.ReportMetric(s.SLOHitRate, "slo_hit_rate")
		b.ReportMetric(s.RespP99MS, "p99_ms")
		b.ReportMetric(s.QueueDepthMean, "queue_mean")
	})
}

// BenchmarkDenseContention stresses the rate engine where the paper's
// dense-contention regimes live: many contexts × many streams, all
// continuously busy, swept across demand ratios from half-subscribed to the
// paper's 2.0x over-subscription. Every kernel completion triggers a
// running-set transition over ~32 concurrent kernels, so this benchmark is
// almost pure rate-engine work (DESIGN.md §10): ratio ≤ 1 takes the rigid
// allocation, ratio > 1 the waterfill and the contention terms. The
// recompute count and the des heap work are reported per iteration.
func BenchmarkDenseContention(b *testing.B) {
	const (
		perStream = 12
		kernelMS  = 2.0 // single-SM ms per kernel
	)
	// Explicit context layouts rather than a derived division: the 1.0 case
	// sits exactly on the demand == TotalSMs boundary (4×17 = 68), the last
	// point the rigid allocation covers, and the sub-benchmark names carry
	// the achieved ratio (also reported as a metric).
	cases := []struct {
		name   string
		nCtx   int
		smsPer int
	}{
		{"ratio-0.5", 8, 4},  // demand 32/68 ≈ 0.47
		{"ratio-1.0", 4, 17}, // demand 68/68 = 1.00: the exact-fit boundary
		{"ratio-1.5", 8, 12}, // demand 96/68 ≈ 1.41
		{"ratio-2.0", 8, 17}, // demand 136/68 = 2.00
	}
	for _, tc := range cases {
		nCtx, smsPer := tc.nCtx, tc.smsPer
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			cfg := gpu.DefaultConfig()
			eng := des.NewEngine()
			dev, err := gpu.NewDevice(eng, sim.DefaultModel(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			var recomputes, gainEvals uint64
			var heap des.HeapStats
			for i := 0; i < b.N; i++ {
				eng.Reset()
				if err := dev.Reset(cfg); err != nil {
					b.Fatal(err)
				}
				for c := 0; c < nCtx; c++ {
					ctx, err := dev.CreateContext("dc", smsPer)
					if err != nil {
						b.Fatal(err)
					}
					for s := 0; s < 4; s++ {
						p := gpu.LowPriority
						if s < 2 {
							p = gpu.HighPriority
						}
						stream := ctx.AddStream("s", p)
						for k := 0; k < perStream; k++ {
							stream.Submit(&gpu.Kernel{
								Arg:    "dc",
								Shares: []speedup.WorkShare{{Class: speedup.Conv, Work: kernelMS}},
							})
						}
					}
				}
				eng.Run()
				for _, ctx := range dev.Contexts() {
					if ctx.Busy() {
						b.Fatalf("%v still holds kernels after the run", ctx)
					}
				}
				recomputes, gainEvals = dev.RecomputeStats()
				heap = eng.HeapStats()
			}
			b.ReportMetric(float64(nCtx*smsPer)/68, "demand_ratio")
			b.ReportMetric(float64(recomputes), "recomputes")
			b.ReportMetric(float64(gainEvals), "gain_evals")
			reportHeap(b, heap)
		})
	}
}

// BenchmarkRobustnessOverrun injects per-job execution-time variation (WCET
// overruns the offline profile never saw) and reports how gracefully each
// scheduler degrades at a saturating load.
func BenchmarkRobustnessOverrun(b *testing.B) {
	for _, variation := range []float64{0, 0.15, 0.3} {
		variation := variation
		b.Run(fmt.Sprintf("sgprs-var%.0f%%", variation*100), func(b *testing.B) {
			cfg := ablationBase()
			cfg.WorkVariation = variation
			runAblation(b, cfg)
		})
		b.Run(fmt.Sprintf("naive-var%.0f%%", variation*100), func(b *testing.B) {
			cfg := ablationBase()
			cfg.Kind = sgprs.KindNaive
			cfg.ContextSMs = sgprs.ContextPool(3, 1.0, 68)
			cfg.WorkVariation = variation
			runAblation(b, cfg)
		})
	}
}

// BenchmarkEnergyEfficiency reports fps-per-watt at light and saturating
// load (the device power model is linear in busy SMs; see gpu.PowerModel).
func BenchmarkEnergyEfficiency(b *testing.B) {
	for _, n := range []int{8, 26} {
		n := n
		b.Run(fmt.Sprintf("tasks-%d", n), func(b *testing.B) {
			cfg := ablationBase()
			cfg.NumTasks = n
			var res sgprs.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = sgprs.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.FPSPerWatt, "fps_per_watt")
			b.ReportMetric(res.AvgPowerW, "watts")
		})
	}
}

// BenchmarkFleetFailover is the fleet-layer benchmark (DESIGN.md §15): a
// 3-device fleet loses device 1 mid-run and recovers it a second later,
// once per failover policy, against a clean fleet twin. The failover
// counters ride alongside the allocation figures TestWorkGate pins.
func BenchmarkFleetFailover(b *testing.B) {
	benchWork(b, "FleetFailover", func(b *testing.B, res sim.Result, _ sim.Stats) {
		fl := res.Summary.Fleet
		b.ReportMetric(res.Summary.TotalFPS, "fps")
		b.ReportMetric(res.Summary.DMR, "dmr")
		b.ReportMetric(float64(fl.Migrations), "migrations")
		b.ReportMetric(float64(fl.ShedReleases), "shed_releases")
		b.ReportMetric(fl.FleetDegradedDMR, "fleet_dmr")
	})
}
