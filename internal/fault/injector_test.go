package fault

import (
	"math"
	"reflect"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/gpu"
	"sgprs/internal/metrics"
	"sgprs/internal/speedup"
)

// TestParetoDrawMatchesPow pins the heavy-tail draw's two fast paths — the
// exact Factor below the clip threshold and Pow's own Exp/Log path for
// α > 2 — bitwise against the plain math.Min(F, math.Pow(x, -1/α)): over
// 2^16 stream draws per (F, α) pair, about 1.6·10⁶ in all, and at every
// value within 4 ulps of F^-α and of the clip threshold.
func TestParetoDrawMatchesPow(t *testing.T) {
	rng := des.NewRNG(7)
	for _, f := range []float64{1, 1.5, 4} {
		for _, alpha := range []float64{0.5, 1.5, 2, 2.5, 3, 4, 7.3, 1000} {
			p := newParetoDraw(f, alpha)
			check := func(x float64) {
				got, want := p.at(x), math.Min(f, math.Pow(x, -1/alpha))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("F=%v α=%v x=%v: draw %v, want %v", f, alpha, x, got, want)
				}
			}
			for range 1 << 16 {
				check(1 - rng.Float64())
			}
			for _, x0 := range []float64{math.Pow(f, -alpha), p.clip} {
				x := x0
				for range 4 {
					x = math.Nextafter(x, 0)
				}
				for range 9 {
					check(x)
					x = math.Nextafter(x, 2)
				}
			}
		}
	}
}

// TestInjectorResetForgetsRun: an injector reset after a run — streams
// drawn from, counters up, a pending fault cut off by the horizon, a
// collector installed — is the injector a first Reset builds: streams
// re-forked, counters zero, every pending-fault struct free and holding no
// kernel, and the next Install's collector (here none) the only one it
// flips.
func TestInjectorResetForgetsRun(t *testing.T) {
	eng := des.NewEngine()
	dev, err := gpu.NewDevice(eng, speedup.DefaultModel(), gpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{
		Overrun:     &Overrun{Model: OverrunHeavyTail, Factor: 1.5},
		Transient:   &Transient{Prob: 0.1, Policy: "skip-job", MaxRetries: 3, BackoffMS: 2},
		Degradation: []Window{{StartSec: 1, EndSec: 2, SMs: 40}},
	}
	var used Injector
	if err := used.Reset(cfg, eng, dev, nil, 5); err != nil {
		t.Fatal(err)
	}
	used.Install(metrics.NewCollector(0, 3*des.Second))
	used.orng.Float64()
	used.trng.Float64()
	used.stats.Overruns, used.stats.Retries = 3, 1
	used.faults.New().k = &gpu.Kernel{} // armed when the horizon cut the run

	eng.Reset()
	if err := used.Reset(cfg, eng, dev, nil, 5); err != nil {
		t.Fatal(err)
	}
	var fresh Injector
	if err := fresh.Reset(cfg, eng, dev, nil, 5); err != nil {
		t.Fatal(err)
	}
	if used.orng != fresh.orng || used.trng != fresh.trng {
		t.Error("reset injector's streams are not re-forked from the seed")
	}
	if used.stats != fresh.stats {
		t.Errorf("reset injector's counters are %+v, want zero", used.stats)
	}
	if used.tail != fresh.tail || used.defPolicy != fresh.defPolicy ||
		used.defRetries != fresh.defRetries || used.backoff != fresh.backoff {
		t.Error("reset injector's run constants differ from a new injector's")
	}
	if len(used.freeFaults) != 1 || used.freeFaults[0].k != nil {
		t.Errorf("reset injector frees %d pending faults, want the 1 carved, holding no kernel", len(used.freeFaults))
	}
	used.Install(nil)
	if used.col != nil {
		t.Error("reset injector still flips the previous run's collector")
	}
	if !reflect.DeepEqual(used.edges, []windowEdge{{&used, 40, true}, {&used, dev.Config().TotalSMs, false}}) {
		t.Errorf("reinstalled edges = %+v, want one degrade and one restore", used.edges)
	}
}
