package sim

import (
	"reflect"
	"testing"

	"sgprs/internal/fault"
	"sgprs/internal/memo"
	"sgprs/internal/metrics"
	"sgprs/internal/speedup"
)

// TestNilFaultsBitIdenticalScenarios is the fault-layer acceptance test: an
// empty fault.Config — which installs the injection hook, the degradation
// plumbing, and the collector's degraded accounting, but injects nothing —
// must reproduce the nil-Faults run byte for byte across both paper scenario
// grids, every variant, every task count. Any perturbation from the hook call
// sites, the effective-SM indirection, or the degraded-flag bookkeeping shows
// up here. Neither side fast-forwards: the default device's contention
// jitter keeps both off that path, so only the fault plumbing differs
// (fault runs never warp; TestFaultRunsIneligibleForFastForward pins that).
func TestNilFaultsBitIdenticalScenarios(t *testing.T) {
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
					t.Fatalf("scenario %d %s n=%d nil faults: %v", scenario, v.Name, n, err)
				}
				cfg.Faults = &fault.Config{}
				got, err := NewSession(cache).Run(cfg)
				if err != nil {
					t.Fatalf("scenario %d %s n=%d empty faults: %v", scenario, v.Name, n, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("scenario %d %s n=%d: empty fault.Config differs from nil\nwant %+v\ngot  %+v",
						scenario, v.Name, n, want.Summary, got.Summary)
				}
			}
		}
	}
}

// faultedConfig is a configuration with every injector family active at once:
// heavy-tailed overruns, transient faults under the given recovery policy,
// and an SM-degradation window inside the measurement interval.
func faultedConfig(name, policy string) RunConfig {
	return RunConfig{
		Kind: KindSGPRS, Name: name, ContextSMs: []int{23, 23, 23},
		NumTasks: 16, HorizonSec: 2, Seed: 7,
		Faults: &fault.Config{
			Overrun:   &fault.Overrun{Model: fault.OverrunHeavyTail, Factor: 2},
			Transient: &fault.Transient{Prob: 0.05, Policy: policy, MaxRetries: 2},
			Degradation: []fault.Window{
				{StartSec: 0.8, EndSec: 1.4, SMs: 20},
			},
		},
	}
}

// TestFaultRunsDeterministic pins seeded reproducibility with every injector
// family active: two fresh runs of the same faulted configuration are
// bit-identical, and a session interleaving other faulted work in between
// reproduces the same result — fault state never leaks across Session.Run
// calls.
func TestFaultRunsDeterministic(t *testing.T) {
	for _, policy := range []string{"retry", "skip-job", "kill-chain"} {
		cfg := faultedConfig("det-"+policy, policy)
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s first run: %v", policy, err)
		}
		again, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s second run: %v", policy, err)
		}
		if !reflect.DeepEqual(want, again) {
			t.Errorf("%s: two fresh runs differ\nwant %+v\ngot  %+v", policy, want.Summary, again.Summary)
		}
	}
	sess := NewSession(memo.New())
	cfg := faultedConfig("det-session", "retry")
	want, err := sess.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(faultedConfig("det-other", "kill-chain")); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("session rerun differs after interleaved faulted run\nwant %+v\ngot  %+v",
			want.Summary, got.Summary)
	}
}

// TestFaultRunsIneligibleForFastForward pins the eligibility interaction: a
// steady configuration that warps thousands of cycles when fault-free must
// fully simulate — zero fast-forward activity — as soon as any Faults config
// is present, even an empty one. Injection is event-driven and seeded; a warp
// would skip launches the injector was due to see.
func TestFaultRunsIneligibleForFastForward(t *testing.T) {
	cfg := RunConfig{
		Kind: KindSGPRS, Name: "ff-faults", ContextSMs: ContextPool(2, 1.5, speedup.DeviceSMs),
		NumTasks: 6, HorizonSec: 8, Seed: 1, GPU: eligibleGPU(1),
	}
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.FastForward.CyclesSkipped == 0 {
		t.Fatal("reference run never fast-forwarded; the test exercises nothing")
	}
	cfg.Faults = &fault.Config{}
	faulted, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.FastForward != (metrics.FFStats{}) {
		t.Errorf("fault run engaged fast-forward: %+v", faulted.FastForward)
	}
}

// TestFaultInjectionActivity guards the equivalence tests against vacuity:
// each injector family, under each recovery policy, must actually fire and
// leave its fingerprint in the summary's fault accounting.
func TestFaultInjectionActivity(t *testing.T) {
	clean := faultedConfig("clean", "retry")
	clean.Faults = nil
	base, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"retry", "skip-job", "kill-chain"} {
		res, err := Run(faultedConfig("act-"+policy, policy))
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		f := res.Summary.Faults
		if f.Overruns == 0 || f.OverrunMassMS <= 0 {
			t.Errorf("%s: no overruns injected: %+v", policy, f)
		}
		if f.TransientFaults == 0 {
			t.Errorf("%s: no transient faults injected: %+v", policy, f)
		}
		if f.DegradedReleased == 0 {
			t.Errorf("%s: degradation window saw no releases: %+v", policy, f)
		}
		if f.DegradedDMR < 0 || f.DegradedDMR > 1 {
			t.Errorf("%s: degraded DMR %v outside [0, 1]", policy, f.DegradedDMR)
		}
		switch policy {
		case "retry":
			if f.Retries == 0 || f.Recoveries == 0 {
				t.Errorf("retry: no retried or recovered jobs: %+v", f)
			}
		case "skip-job":
			if f.SkippedJobs == 0 {
				t.Errorf("skip-job: no skipped jobs: %+v", f)
			}
			if res.Summary.Dropped == 0 {
				t.Errorf("skip-job: skipped jobs not accounted as dropped: %+v", res.Summary)
			}
		case "kill-chain":
			if f.KilledChains == 0 {
				t.Errorf("kill-chain: no killed chains: %+v", f)
			}
		}
		// Injected faults must hurt, and only through the fault accounting:
		// a faulted run completing at least as much work as its clean twin
		// would mean injection is cosmetic.
		if res.Summary.Missed+res.Summary.Dropped <= base.Summary.Missed+base.Summary.Dropped {
			t.Errorf("%s: faults cost nothing (missed+dropped %d vs clean %d)",
				policy, res.Summary.Missed+res.Summary.Dropped, base.Summary.Missed+base.Summary.Dropped)
		}
	}
}
