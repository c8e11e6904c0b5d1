package exp

import (
	"fmt"

	"sgprs/internal/cluster"
	"sgprs/internal/fault"
	"sgprs/internal/rt"
	"sgprs/internal/sim"
	"sgprs/internal/speedup"
	"sgprs/internal/workload"
)

// Scenario builds the spec for one paper scenario (1 or 2): the naive
// baseline plus SGPRS at over-subscription 1.0/1.5/2.0, swept over the task
// counts. The facade exposes it as ScenarioExperiment.
func Scenario(scenario int, taskCounts []int, horizonSec float64, seed uint64) (*Spec, error) {
	np, err := sim.ScenarioContexts(scenario)
	if err != nil {
		return nil, err
	}
	s := &Spec{
		Name: fmt.Sprintf("scenario%d", scenario),
		Description: fmt.Sprintf(
			"paper scenario %d (%d contexts): naive baseline + SGPRS at 1.0/1.5/2.0x over-subscription (Figures %da/%db)",
			scenario, np, scenario+2, scenario+2),
		Axes: []Axis{Tasks(taskCounts...)},
	}
	for _, v := range sim.ScenarioVariants() {
		s.Variants = append(s.Variants, sim.RunConfig{
			Kind:       v.Kind,
			Name:       v.Name,
			ContextSMs: sim.ContextPool(np, v.OS, speedup.DeviceSMs),
			HorizonSec: horizonSec,
			Seed:       seed,
			NumTasks:   1, // overwritten by the task axis
		})
	}
	return s, nil
}

// Built-in experiments. The paper's two scenarios ship as registry entries
// next to three studies from its evaluation discussion (§V): an ablation
// grid over the scheduler's design features, a release-jitter ladder, and
// an over-subscription sweep. All use the full 10 s evaluation horizon;
// Lookup returns clones, so callers wanting a smoke-scale run can shrink
// the axes of their copy freely.
func init() {
	var fullRamp []int
	for n := 1; n <= 30; n++ {
		fullRamp = append(fullRamp, n)
	}
	for _, scenario := range []int{1, 2} {
		s, err := Scenario(scenario, fullRamp, 10, 1)
		if err != nil {
			panic(err)
		}
		MustRegister(s)
	}

	sgprs15 := func(name string, np int) sim.RunConfig {
		return sim.RunConfig{
			Kind:       sim.KindSGPRS,
			Name:       name,
			ContextSMs: sim.ContextPool(np, 1.5, speedup.DeviceSMs),
			HorizonSec: 10,
			Seed:       1,
			NumTasks:   1,
		}
	}

	// Ablation grid: each SGPRS design feature toggled off in isolation
	// against the full scheduler, across the load ramp's decision points.
	full := sgprs15("sgprs-full", 3)
	noProm := sgprs15("no-medium-promotion", 3)
	noProm.DisableMediumPromotion = true
	noDrop := sgprs15("no-late-drop", 3)
	noDrop.DisableLateDrop = true
	flat := sgprs15("flat-priorities", 3)
	flat.FlattenPriorities = true
	MustRegister(&Spec{
		Name:        "ablation-grid",
		Description: "SGPRS 1.5x (3 contexts) vs each design feature disabled, over the pivot-region loads",
		Variants:    []sim.RunConfig{full, noProm, noDrop, flat},
		Axes:        []Axis{Tasks(8, 16, 23, 26, 30)},
	})

	// Jitter ladder: how much sporadic release jitter the schedule
	// absorbs before the pivot point recedes.
	MustRegister(&Spec{
		Name:        "jitter-ladder",
		Description: "SGPRS 1.5x (2 contexts) under growing release jitter: 0/2/5/10 ms bounds over the load ramp",
		Variants:    []sim.RunConfig{sgprs15("sgprs", 2)},
		Axes:        []Axis{JitterMS(0, 2, 5, 10), Tasks(4, 8, 12, 16, 20, 24, 28)},
	})

	// Over-subscription sweep: the Figure 4 trade-off as a first-class
	// axis — predictability versus contention around the saturation knee.
	MustRegister(&Spec{
		Name:        "oversubscription",
		Description: "SGPRS (3 contexts) across over-subscription 1.0..2.0 at saturating loads",
		Variants:    []sim.RunConfig{sgprs15("sgprs", 3)},
		Axes:        []Axis{OverSub(1.0, 1.25, 1.5, 1.75, 2.0), Tasks(20, 22, 24, 26, 28)},
	})

	// Overload tail study: open-loop Poisson arrivals at each task's
	// natural rate, pushed past saturation by the rate axis. The overload
	// metrics — drop rate, p99/p999 response, SLO hit rate, backlog depth
	// — separate SGPRS's late-drop shedding from the naive scheduler's
	// unbounded queueing. SLO = one frame period at 30 fps.
	overSGPRS := sgprs15("sgprs-1.5x", 3)
	overSGPRS.Arrival = workload.Poisson{}
	overSGPRS.SLOMS = 1000.0 / 30.0
	overNaive := sim.RunConfig{
		Kind:       sim.KindNaive,
		Name:       "naive",
		ContextSMs: sim.ContextPool(3, 1.0, speedup.DeviceSMs),
		HorizonSec: 10,
		Seed:       1,
		NumTasks:   1,
		Arrival:    workload.Poisson{},
		SLOMS:      1000.0 / 30.0,
	}
	MustRegister(&Spec{
		Name:        "overload-tail",
		Description: "SGPRS 1.5x vs naive (3 contexts) under open-loop Poisson arrivals, rate-swept past saturation: drop rate and tail latency",
		Variants:    []sim.RunConfig{overSGPRS, overNaive},
		Axes:        []Axis{Rate(1.0, 1.25, 1.5, 2.0), Tasks(8, 16, 24)},
	})

	// Trace replay: both schedulers driven by one shared synthetic arrival
	// log (Poisson at 60 rows/s over 8 s, pre-generated so every variant
	// and worker count replays the identical timestamps). Swapping in a
	// production trace is a LoadTrace call on a copy of this spec.
	trace := workload.SyntheticTrace("synthetic-60", 7, 60, 8, 8)
	traceSGPRS := sgprs15("sgprs-1.5x", 2)
	traceSGPRS.Arrival = workload.Trace{Data: trace}
	traceSGPRS.SLOMS = 1000.0 / 30.0
	traceNaive := sim.RunConfig{
		Kind:       sim.KindNaive,
		Name:       "naive",
		ContextSMs: sim.ContextPool(2, 1.0, speedup.DeviceSMs),
		HorizonSec: 10,
		Seed:       1,
		NumTasks:   1,
		Arrival:    workload.Trace{Data: trace},
		SLOMS:      1000.0 / 30.0,
	}
	MustRegister(&Spec{
		Name:        "trace-replay",
		Description: "SGPRS 1.5x vs naive (2 contexts) replaying a shared synthetic arrival trace (60 rows/s, 8 s)",
		Variants:    []sim.RunConfig{traceSGPRS, traceNaive},
		Axes:        []Axis{Tasks(4, 8)},
	})

	// Fault resilience (DESIGN.md §13): each recovery policy against a
	// rising transient-fault rate, plus the naive baseline (whose static
	// partitions can only retry or drop). The fault-rate axis deep-copies
	// each variant's fault block per grid cell, so the policies stay
	// distinct across the sweep.
	// A mild heavy-tailed overrun rides along on every variant: it stretches
	// job responses enough that held successor frames are still viable when
	// a fault hits, which is exactly the regime where skip-job and
	// kill-chain diverge (without it they coincide — underloaded tasks hold
	// nothing, and deep overload's held frames are doomed either way).
	faultVariant := func(name, policy string) sim.RunConfig {
		cfg := sgprs15(name, 3)
		cfg.Faults = &fault.Config{
			Overrun:   &fault.Overrun{Model: fault.OverrunHeavyTail, Factor: 1.5},
			Transient: &fault.Transient{Policy: policy},
		}
		return cfg
	}
	faultNaive := sim.RunConfig{
		Kind:       sim.KindNaive,
		Name:       "naive-retry",
		ContextSMs: sim.ContextPool(3, 1.0, speedup.DeviceSMs),
		HorizonSec: 10,
		Seed:       1,
		NumTasks:   1,
		Faults: &fault.Config{
			Overrun:   &fault.Overrun{Model: fault.OverrunHeavyTail, Factor: 1.5},
			Transient: &fault.Transient{Policy: "retry"},
		},
	}
	MustRegister(&Spec{
		Name:        "fault-resilience",
		Description: "recovery policies (retry/skip-job/kill-chain) + naive baseline under rising transient-fault rates",
		Variants: []sim.RunConfig{
			faultVariant("sgprs-retry", "retry"),
			faultVariant("sgprs-skip", "skip-job"),
			faultVariant("sgprs-kill", "kill-chain"),
			faultNaive,
		},
		Axes: []Axis{FaultRate(0, 0.01, 0.05, 0.10), Tasks(8, 16, 24, 30)},
	})

	// Overrun sweep: the three WCET-overrun models at matched worst-case
	// inflation — does the rate engine absorb a constant tax better than a
	// heavy tail or synchronized Nth-frame spikes?
	overrunVariant := func(name string, o *fault.Overrun) sim.RunConfig {
		cfg := sgprs15(name, 3)
		cfg.Faults = &fault.Config{Overrun: o}
		return cfg
	}
	MustRegister(&Spec{
		Name:        "overrun-sweep",
		Description: "WCET-overrun models (constant/heavy-tail/spike) at matched 1.5x worst case over the load ramp",
		Variants: []sim.RunConfig{
			sgprs15("no-overrun", 3),
			overrunVariant("constant-1.5x", &fault.Overrun{Model: fault.OverrunConstant, Factor: 1.5}),
			overrunVariant("heavy-tail-1.5x", &fault.Overrun{Model: fault.OverrunHeavyTail, Factor: 1.5}),
			overrunVariant("spike-1.5x", &fault.Overrun{Model: fault.OverrunSpike, Factor: 1.5, Every: 10}),
		},
		Axes: []Axis{Tasks(8, 16, 23, 26)},
	})

	// Fleet failover (DESIGN.md §15): a 3-device fleet loses device 1
	// mid-measurement and gets it back 2 s later; each failover policy
	// against a clean fleet twin, over the load ramp. The admission ceiling
	// bites while degraded (2/3 surviving capacity < 0.7), so shed releases
	// and the fleet-degraded DMR separate the policies.
	fleetVariant := func(name string, fo rt.FailoverPolicy, faulted bool) sim.RunConfig {
		cfg := sgprs15(name, 3)
		cfg.Devices = 3
		cfg.Failover = fo
		cfg.AdmitCeiling = 0.7
		if faulted {
			cfg.Faults = &fault.Config{
				DeviceFaults: []fault.DeviceFault{{Device: 1, StartSec: 3, RestartSec: 5}},
			}
		}
		return cfg
	}
	MustRegister(&Spec{
		Name:        "fleet-failover",
		Description: "3-device fleet, device 1 crashes at 3 s and restarts at 5 s: migrate/retry/shed failover vs a clean fleet",
		Variants: []sim.RunConfig{
			fleetVariant("fleet-clean", rt.FailoverDefault, false),
			fleetVariant("fleet-migrate", rt.FailoverMigrate, true),
			fleetVariant("fleet-retry", rt.FailoverRetry, true),
			fleetVariant("fleet-shed", rt.FailoverShed, true),
		},
		Axes: []Axis{Tasks(12, 24, 36, 48)},
	})

	// Fleet shootout: placement policies crossed with fleet sizes on a clean
	// fleet — how much of the single-device pivot survives scale-out, and
	// which homing heuristic spreads the load best.
	MustRegister(&Spec{
		Name:        "fleet-shootout",
		Description: "placement policies (bin-pack/context-fit/load-steal) across 2/3/4-device fleets at scaling loads",
		Variants:    []sim.RunConfig{sgprs15("sgprs-fleet", 3)},
		Axes: []Axis{
			Devices(2, 3, 4),
			Placements(cluster.PlaceBinPack, cluster.PlaceContextFit, cluster.PlaceLoadSteal),
			Tasks(16, 32, 48),
		},
	})
}
