package sim

import (
	"reflect"
	"testing"

	"sgprs/internal/gpu"
)

// referenceGPU mirrors Normalize's default GPU derivation but forces the
// retained full-recompute reference engine (gpu.Config.DisableIncremental).
func referenceGPU(seed uint64) gpu.Config {
	g := gpu.DefaultConfig()
	g.Seed = seed + 1
	g.DisableIncremental = true
	return g
}

// TestIncrementalEngineBitIdenticalScenarios is the incremental rate
// engine's acceptance test (DESIGN.md §10): full scenario grids — every
// variant of both paper scenarios, swept across task counts spanning light
// load through past the pivot — must be byte-for-byte equal between the
// incremental engine and the retained full-recompute reference.
// reflect.DeepEqual over the metrics points covers every float bit of every
// summary.
func TestIncrementalEngineBitIdenticalScenarios(t *testing.T) {
	counts := []int{4, 12, 26}
	const horizon = 2
	for _, scenario := range []int{1, 2} {
		np, err := ScenarioContexts(scenario)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range ScenarioVariants() {
			base := RunConfig{
				Kind:       v.Kind,
				Name:       v.Name,
				ContextSMs: ContextPool(np, v.OS, 68),
				HorizonSec: horizon,
				Seed:       1,
				NumTasks:   1,
			}
			incremental := sweep(t, NewSession(nil), base, counts)
			ref := base
			ref.GPU = referenceGPU(base.Seed)
			if reference := sweep(t, NewSession(nil), ref, counts); !reflect.DeepEqual(incremental, reference) {
				t.Errorf("scenario %d %s: incremental engine output differs from full-recompute reference", scenario, v.Name)
			}
		}
	}
}

// TestIncrementalEngineBitIdenticalStochastic covers the regimes the
// scenario grids miss: sporadic releases (jitter), WCET overruns (work
// variation), heavy over-subscription, and the naive baseline's fixed-cost
// kernels — each compared against the reference engine, full-result
// DeepEqual.
func TestIncrementalEngineBitIdenticalStochastic(t *testing.T) {
	cases := []struct {
		name string
		cfg  RunConfig
	}{
		{"jittered-oversubscribed", RunConfig{
			Kind: KindSGPRS, ContextSMs: []int{68, 68}, NumTasks: 20,
			HorizonSec: 2, ReleaseJitterMS: 2, WorkVariation: 0.2, Seed: 7,
		}},
		{"deep-oversubscription", RunConfig{
			Kind: KindSGPRS, ContextSMs: []int{68, 68, 68}, NumTasks: 30,
			HorizonSec: 2, Seed: 3,
		}},
		{"rigid-partitions", RunConfig{
			Kind: KindSGPRS, ContextSMs: []int{22, 22, 22}, NumTasks: 18,
			HorizonSec: 2, Stagger: true, Seed: 11,
		}},
		{"naive-jittered", RunConfig{
			Kind: KindNaive, ContextSMs: []int{34, 34}, NumTasks: 12,
			HorizonSec: 2, ReleaseJitterMS: 1, WorkVariation: 0.1, Seed: 5,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			incremental, err := RunWith(tc.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref := tc.cfg
			ref.GPU = referenceGPU(tc.cfg.Seed)
			reference, err := RunWith(ref, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(incremental, reference) {
				t.Errorf("incremental engine output differs from full-recompute reference:\n inc: %+v\n ref: %+v", incremental, reference)
			}
		})
	}
}
