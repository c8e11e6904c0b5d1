package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"sgprs/internal/memo"
)

// digest is the golden recipe (internal/exp's TestGoldenDigests): SHA-256 of
// the value's %+v rendering. That prints each metrics.Summary through its
// String method, so it covers only the 7 fields String prints (TotalFPS,
// DMR, Released, Completed, Missed, RespMeanMS, RespP99MS), and 4 of those
// rounded; a change to any other Summary field leaves the digest as it was.
func digest(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:])
}

// TestRateEngineScenarioDigests pins every variant of both paper scenarios,
// swept from light load through past the pivot, to the digest of its series.
// The digests were computed while the gpu rate engine still had incremental
// recompute tiers beside its full sweep, and both produced them.
func TestRateEngineScenarioDigests(t *testing.T) {
	want := map[string]string{
		"1/naive":      "a5836b77b851c6a65e9b11060459bef4d135af3a9359e324728fffe26c998931",
		"1/sgprs-1.0x": "40bc664801246159f4c09d32ec97032a50916019e3581d7fe5de35e47d703c6a",
		"1/sgprs-1.5x": "0cb1dfad23af374859295b39a1dcac6a4858adf3310a8402ece73b1a0b0e8b72",
		"1/sgprs-2.0x": "636ecbd1b59dc30eb6ef2cebde42bf772c46be23850bc943fed6b484d48dd0dd",
		"2/naive":      "f9fac7c6b5ae172cad545d5cea33043f714ba458c0f43202bef18fa3c10f8a72",
		"2/sgprs-1.0x": "e68dd6923e05bd5729eb5aa9f98d81e6ec17dadc61364ec14a0326d080151edc",
		"2/sgprs-1.5x": "e770ff11843383153fb2d25e3ed4c9f9932c534c79bfce70b494a40a4fa68b1f",
		"2/sgprs-2.0x": "fd0633cc7fa63028887d0c5d89590619737e39c8e80f9d33153c388439507de7",
	}
	counts := []int{4, 12, 26}
	for _, scenario := range []int{1, 2} {
		np, err := ScenarioContexts(scenario)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range ScenarioVariants() {
			series := sweep(t, NewSession(memo.New()), RunConfig{
				Kind:       v.Kind,
				Name:       v.Name,
				ContextSMs: ContextPool(np, v.OS, 68),
				HorizonSec: 2,
				Seed:       1,
				NumTasks:   1,
			}, counts)
			key := fmt.Sprintf("%d/%s", scenario, v.Name)
			if got := digest(series); got != want[key] {
				t.Errorf("scenario %s: digest %s, want %s", key, got, want[key])
			}
		}
	}
}

// TestRateEngineStochasticDigests covers the regimes the scenario grids miss:
// sporadic releases (jitter), WCET overruns (work variation), heavy
// over-subscription, and the naive baseline's fixed-cost kernels. Each run's
// full Result is pinned to a digest computed, like the scenario digests,
// while the tiered and the full-sweep rate engines both produced it.
func TestRateEngineStochasticDigests(t *testing.T) {
	cases := []struct {
		name string
		cfg  RunConfig
		want string
	}{
		{"jittered-oversubscribed", RunConfig{
			Kind: KindSGPRS, ContextSMs: []int{68, 68}, NumTasks: 20,
			HorizonSec: 2, ReleaseJitterMS: 2, WorkVariation: 0.2, Seed: 7,
		}, "1c96acb70c371ddefe16d7620bfa42dfbbf2ff8ada672df16fabe29613a89552"},
		{"deep-oversubscription", RunConfig{
			Kind: KindSGPRS, ContextSMs: []int{68, 68, 68}, NumTasks: 30,
			HorizonSec: 2, Seed: 3,
		}, "d019079e47c537e19571aa8004606867a474a1b7ee8bedb779c4996368590b76"},
		{"rigid-partitions", RunConfig{
			Kind: KindSGPRS, ContextSMs: []int{22, 22, 22}, NumTasks: 18,
			HorizonSec: 2, Stagger: true, Seed: 11,
		}, "19b10ff0fe7b3a2865331d44ef9da810b5a7b8b061ac28b8ed88d19c99545fbf"},
		{"naive-jittered", RunConfig{
			Kind: KindNaive, ContextSMs: []int{34, 34}, NumTasks: 12,
			HorizonSec: 2, ReleaseJitterMS: 1, WorkVariation: 0.1, Seed: 5,
		}, "a5e4a58302a9355db25d653693d1d315fd89bcb4af396f55c6a9c3518775ffa6"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(res); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
