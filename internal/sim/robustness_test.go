package sim

import (
	"reflect"
	"testing"

	"sgprs/internal/fault"
)

// TestReleaseJitterStillSchedulable: sporadic releases at light load must
// not cause misses — the virtual-deadline machinery is anchored to actual
// release instants, not nominal periods.
func TestReleaseJitterStillSchedulable(t *testing.T) {
	res, err := Run(RunConfig{
		Kind:            KindSGPRS,
		ContextSMs:      []int{34, 34},
		NumTasks:        8,
		ReleaseJitterMS: 10,
		HorizonSec:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Missed != 0 {
		t.Errorf("jittered light load missed %d deadlines", res.Summary.Missed)
	}
	// Jitter spreads releases, so FPS stays near offered.
	if res.Summary.TotalFPS < 220 || res.Summary.TotalFPS > 250 {
		t.Errorf("fps = %v, want ~240", res.Summary.TotalFPS)
	}
}

// TestOverrunPastClockMissesJobs: an overrun factor that pushes kernels'
// finish instants past the nanosecond clock leaves them unfinishable within
// any horizon. Both schedulers must still run to the horizon, and every
// measured job must count as missed.
func TestOverrunPastClockMissesJobs(t *testing.T) {
	for _, kind := range []Kind{KindNaive, KindSGPRS} {
		res, err := Run(RunConfig{
			Kind:       kind,
			ContextSMs: []int{34, 34},
			NumTasks:   4,
			HorizonSec: 2,
			Faults:     &fault.Config{Overrun: &fault.Overrun{Model: fault.OverrunConstant, Factor: 1e300}},
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		s := res.Summary
		if s.Faults.Overruns == 0 || s.Released == 0 || s.Completed != 0 || s.Missed != s.Released {
			t.Errorf("%v: overruns=%d released=%d completed=%d missed=%d, want every released job missed",
				kind, s.Faults.Overruns, s.Released, s.Completed, s.Missed)
		}
	}
}

// TestWorkVariationDegradesGracefully: WCET overruns the profile never saw
// must raise the miss rate smoothly near saturation, not collapse throughput
// — the flow-control discipline bounds the damage.
func TestWorkVariationDegradesGracefully(t *testing.T) {
	run := func(variation float64) (fps, dmr float64) {
		res, err := Run(RunConfig{
			Kind:          KindSGPRS,
			ContextSMs:    []int{34, 34, 34},
			NumTasks:      24,
			WorkVariation: variation,
			HorizonSec:    4,
			Seed:          3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary.TotalFPS, res.Summary.DMR
	}
	fps0, dmr0 := run(0)
	fps3, dmr3 := run(0.3)
	if dmr3 <= dmr0 {
		t.Errorf("30%% execution variation should raise DMR: %v vs %v", dmr3, dmr0)
	}
	if dmr3 > 0.5 {
		t.Errorf("DMR under overruns = %v, want graceful (<0.5)", dmr3)
	}
	// Throughput must not collapse: the scheduler sheds, it does not stall.
	if fps3 < 0.7*fps0 {
		t.Errorf("fps collapsed under variation: %v vs %v", fps3, fps0)
	}
}

// TestWorkVariationDeterministic: the injected overruns are seeded, so runs
// replay exactly.
func TestWorkVariationDeterministic(t *testing.T) {
	cfg := RunConfig{
		Kind:          KindSGPRS,
		ContextSMs:    []int{51, 51},
		NumTasks:      20,
		WorkVariation: 0.2,
		HorizonSec:    2,
		Seed:          11,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Summary, b.Summary) {
		t.Errorf("seeded variation diverged:\n%+v\n%+v", a.Summary, b.Summary)
	}
	cfg.Seed = 12
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(c.Summary, a.Summary) {
		t.Error("different seeds produced identical varied runs")
	}
}

// TestNaiveSuffersMoreFromVariation: without per-frame flow control, the
// naive baseline amplifies overruns into cascading misses much faster than
// SGPRS at the same load.
func TestNaiveSuffersMoreFromVariation(t *testing.T) {
	run := func(kind Kind, pool []int) float64 {
		res, err := Run(RunConfig{
			Kind:          kind,
			ContextSMs:    pool,
			NumTasks:      16,
			WorkVariation: 0.35,
			HorizonSec:    4,
			Seed:          5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Summary.DMR
	}
	naiveDMR := run(KindNaive, []int{34, 34})
	sgprsDMR := run(KindSGPRS, []int{34, 34})
	if sgprsDMR >= naiveDMR {
		t.Errorf("SGPRS DMR %v should beat naive %v under overruns", sgprsDMR, naiveDMR)
	}
}

// TestEnergyAccountingInResults: energy fields are populated and scale with
// load.
func TestEnergyAccountingInResults(t *testing.T) {
	run := func(n int) Result {
		res, err := Run(RunConfig{
			Kind:       KindSGPRS,
			ContextSMs: []int{34, 34},
			NumTasks:   n,
			HorizonSec: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	light, heavy := run(2), run(16)
	if light.EnergyJoules <= 0 || light.AvgPowerW <= 0 || light.FPSPerWatt <= 0 {
		t.Errorf("energy fields unpopulated: %+v", light)
	}
	if heavy.EnergyJoules <= light.EnergyJoules {
		t.Error("more load should cost more energy")
	}
	if heavy.FPSPerWatt <= light.FPSPerWatt {
		t.Error("amortising idle power should improve fps/W at higher load")
	}
}
