package sim

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/gpu"
	"sgprs/internal/memo"
	"sgprs/internal/metrics"
	"sgprs/internal/speedup"
	"sgprs/internal/workload"
)

// eligibleGPU is the fast-forward-eligible device configuration: contention
// jitter zeroed (the only stochastic draw inside the device), everything else
// the calibrated default. The seed offset mirrors RunConfig.Normalize.
func eligibleGPU(seed uint64) gpu.Config {
	g := gpu.DefaultConfig()
	g.ContentionJitter = 0
	g.Seed = seed + 1
	return g
}

// TestFastForwardBitIdenticalScenarios is the fast-forward acceptance test:
// across both paper scenario grids — every variant, three task counts from
// linear ramp to deep overload — an eligible run with fast-forward enabled
// must reproduce the DisableFastForward reference byte for byte: every
// Summary float, quantile, counter, and device integral. Only the FFStats
// may differ (the reference never engages), so they are excluded explicitly.
func TestFastForwardBitIdenticalScenarios(t *testing.T) {
	counts := []int{2, 8, 26}
	const horizon = 6
	cache := memo.New()
	detected := false
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
					GPU:        eligibleGPU(1),
				}
				ref := cfg
				ref.DisableFastForward = true
				want, err := RunWith(ref, cache)
				if err != nil {
					t.Fatalf("scenario %d %s n=%d reference: %v", scenario, v.Name, n, err)
				}
				got, err := RunWith(cfg, cache)
				if err != nil {
					t.Fatalf("scenario %d %s n=%d fast-forward: %v", scenario, v.Name, n, err)
				}
				if got.FastForward.CyclesSkipped > 0 {
					detected = true
				}
				got.FastForward = metrics.FFStats{}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("scenario %d %s n=%d: fast-forward differs from full simulation\nwant %+v\ngot  %+v",
						scenario, v.Name, n, want.Summary, got.Summary)
				}
			}
		}
	}
	if !detected {
		t.Error("fast-forward never engaged on any eligible grid point")
	}
}

// TestFastForwardIneligibleZeroOverhead pins the eligibility gate: under the
// default device configuration (contention jitter on) and under stochastic
// workloads, the fast-forward layer must not hash a single boundary — the
// existing equivalence suites then cover those paths with literally zero new
// code in the loop.
func TestFastForwardIneligibleZeroOverhead(t *testing.T) {
	cfgs := []RunConfig{
		{Kind: KindSGPRS, Name: "default-gpu", ContextSMs: []int{34, 34}, NumTasks: 8,
			HorizonSec: 2, Seed: 1},
		{Kind: KindSGPRS, Name: "jittered", ContextSMs: []int{34, 34}, NumTasks: 8,
			ReleaseJitterMS: 3, HorizonSec: 2, Seed: 1, GPU: eligibleGPU(1)},
		{Kind: KindSGPRS, Name: "poisson", ContextSMs: []int{34, 34}, NumTasks: 8,
			Arrival: workload.Poisson{}, HorizonSec: 2, Seed: 1, GPU: eligibleGPU(1)},
		{Kind: KindNaive, Name: "work-var", ContextSMs: []int{34, 34}, NumTasks: 8,
			WorkVariation: 0.1, HorizonSec: 2, Seed: 1, GPU: eligibleGPU(1)},
	}
	for _, cfg := range cfgs {
		res, err := RunWith(cfg, nil)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if res.FastForward != (metrics.FFStats{}) {
			t.Errorf("%s: ineligible run engaged fast-forward: %+v", cfg.Name, res.FastForward)
		}
	}
}

// TestFastForwardLockstepCollectorState is the strongest equivalence check:
// it snapshots the collector's complete accumulated state — every counter,
// every response-time float, every backlog interval — at every release
// boundary of a fast-forwarded run and a fully simulated reference, and
// requires exact equality at every boundary both runs visit. The boundary
// right after the warp is the crucial one: there the fast-forwarded
// collector state is the product of Replay, the reference's of thousands of
// individually simulated events.
func TestFastForwardLockstepCollectorState(t *testing.T) {
	for _, kind := range []Kind{KindSGPRS, KindNaive} {
		cfg := RunConfig{
			Kind: kind, Name: "lockstep", ContextSMs: ContextPool(2, 1.5, speedup.DeviceSMs),
			NumTasks: 6, HorizonSec: 8, Seed: 1, GPU: eligibleGPU(1),
		}
		snapshots := func(cfg RunConfig) (map[des.Time]metrics.CollectorSnapshot, Result) {
			sess := NewSession(memo.New())
			snaps := map[des.Time]metrics.CollectorSnapshot{}
			sess.ffTrace = func(now des.Time) { snaps[now] = sess.collector.DebugSnapshot() }
			res, err := sess.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Name, err)
			}
			return snaps, res
		}
		ref := cfg
		ref.DisableFastForward = true
		wantSnaps, _ := snapshots(ref)
		gotSnaps, res := snapshots(cfg)
		if res.FastForward.CyclesSkipped == 0 {
			t.Fatalf("kind=%v: fast-forward never engaged; lockstep test exercises nothing", kind)
		}
		if len(gotSnaps) >= len(wantSnaps) {
			t.Errorf("kind=%v: fast-forward visited %d boundaries, reference %d — nothing was skipped",
				kind, len(gotSnaps), len(wantSnaps))
		}
		compared := 0
		for at, got := range gotSnaps {
			want, ok := wantSnaps[at]
			if !ok {
				t.Errorf("kind=%v: fast-forward visited boundary %v the reference never saw", kind, at)
				continue
			}
			compared++
			if !snapshotsEqual(want, got) {
				t.Errorf("kind=%v: collector state diverges at boundary %v\nwant %+v\ngot  %+v",
					kind, at, want, got)
			}
		}
		if compared == 0 {
			t.Errorf("kind=%v: no common boundaries compared", kind)
		}
	}
}

// snapshotsEqual is bitwise equality over collector snapshots. Unfilled
// response slots hold NaN, which reflect.DeepEqual would declare unequal to
// itself; bit-pattern comparison is the equality the bit-identity invariant
// actually means.
func snapshotsEqual(a, b metrics.CollectorSnapshot) bool {
	if a.Released != b.Released || a.Completed != b.Completed ||
		a.CompletedReleased != b.CompletedReleased ||
		a.LateCompleted != b.LateCompleted || a.Dropped != b.Dropped {
		return false
	}
	if len(a.Resp) != len(b.Resp) {
		return false
	}
	for i := range a.Resp {
		if math.Float64bits(a.Resp[i]) != math.Float64bits(b.Resp[i]) {
			return false
		}
	}
	return slices.Equal(a.Starts, b.Starts) && slices.Equal(a.Ends, b.Ends) &&
		slices.Equal(a.EndLog, b.EndLog)
}

// TestFastForwardLongHorizon pins the replay at horizons where the
// accounting totals cross many more binades than the 6 s grids do: each
// cross is where stats.RepeatedSum must switch from jumping whole cycles to
// adding one explicitly. A 150 s run fast-forwarded must DeepEqual the same
// run simulated in full, for SGPRS 2.0x on two contexts and for naive, and
// neither run may reach the collector's queue-depth sort fallback.
func TestFastForwardLongHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 150 s in full twice")
	}
	cache := memo.New()
	for _, kind := range []Kind{KindSGPRS, KindNaive} {
		cfg := RunConfig{
			Kind: kind, Name: "long", ContextSMs: ContextPool(2, 2.0, speedup.DeviceSMs),
			NumTasks: 16, HorizonSec: 150, Seed: 1, GPU: eligibleGPU(1),
		}
		if kind == KindNaive {
			cfg.ContextSMs = ContextPool(2, 1.0, speedup.DeviceSMs)
		}
		ref := cfg
		ref.DisableFastForward = true
		refSess, sess := NewSession(cache), NewSession(cache)
		want, err := refSess.Run(ref)
		if err != nil {
			t.Fatalf("kind=%v reference: %v", kind, err)
		}
		got, err := sess.Run(cfg)
		if err != nil {
			t.Fatalf("kind=%v fast-forward: %v", kind, err)
		}
		skipped := got.FastForward.CyclesSkipped
		if skipped == 0 {
			t.Fatalf("kind=%v: fast-forward never engaged", kind)
		}
		got.FastForward = metrics.FFStats{}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("kind=%v: fast-forward differs from full simulation\nwant %+v\ngot  %+v",
				kind, want, got)
		}
		rs := sess.Stats()
		if rs.Jumps == 0 || rs.Cycles == 0 {
			t.Errorf("kind=%v: replay took %d jumps and %d explicit cycles; the binade path is not exercised",
				kind, rs.Jumps, rs.Cycles)
		}
		if fb := refSess.Stats().SortFallbacks + rs.SortFallbacks; fb != 0 {
			t.Errorf("kind=%v: %d queue-depth sort fallbacks, want 0", kind, fb)
		}
		t.Logf("kind=%v: %d cycles skipped; replay %+v", kind, skipped, rs)
	}
}

// TestFastForwardCollisionSafety forces fingerprint hash collisions — a
// 2-bit hash makes nearly every boundary collide, and a constant hash makes
// all of them — and requires that the verify-on-match byte comparison
// rejects every false match: results stay bit-identical to full simulation
// and no extrapolation ever happens from unequal states. This is the
// property that makes the hash a pure accelerator, never a correctness
// input.
func TestFastForwardCollisionSafety(t *testing.T) {
	cfg := RunConfig{
		Kind: KindSGPRS, Name: "collide", ContextSMs: ContextPool(2, 1.5, speedup.DeviceSMs),
		NumTasks: 4, HorizonSec: 8, Seed: 1, GPU: eligibleGPU(1),
	}
	ref := cfg
	ref.DisableFastForward = true
	want, err := RunWith(ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	hashes := map[string]func([]byte) uint64{
		"2-bit":    func(b []byte) uint64 { return ffHashDefault(b) & 3 },
		"constant": func([]byte) uint64 { return 0 },
	}
	for name, h := range hashes {
		sess := NewSession(nil)
		sess.ffHash = h
		got, err := sess.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.FastForward.HashCollisions == 0 {
			t.Errorf("%s hash produced no collisions; the test exercises nothing", name)
		}
		got.FastForward = metrics.FFStats{}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s hash: collision corrupted results\nwant %+v\ngot  %+v",
				name, want.Summary, got.Summary)
		}
	}
}

// TestSessionInterleavedFastForward extends the session-reuse suite: one
// Session alternating fast-forward-eligible runs with jittered and open-loop
// Poisson ones must reproduce fresh-session references for every run — the
// fast-forward scratch state (fingerprint arena, hash index, warp dedup set)
// must reset as cleanly as the engine and device do.
func TestSessionInterleavedFastForward(t *testing.T) {
	cfgs := []RunConfig{
		{Kind: KindSGPRS, Name: "eligible-1", ContextSMs: []int{34, 34}, NumTasks: 6,
			HorizonSec: 6, Seed: 1, GPU: eligibleGPU(1)},
		{Kind: KindSGPRS, Name: "jittered", ContextSMs: []int{34, 34}, NumTasks: 6,
			ReleaseJitterMS: 2, HorizonSec: 2, Seed: 1},
		{Kind: KindNaive, Name: "eligible-naive", ContextSMs: []int{34, 34}, NumTasks: 8,
			HorizonSec: 6, Seed: 1, GPU: eligibleGPU(1)},
		{Kind: KindSGPRS, Name: "poisson", ContextSMs: []int{23, 23, 23}, NumTasks: 8,
			Arrival: workload.Poisson{Rate: 45}, HorizonSec: 2, Seed: 2},
		{Kind: KindSGPRS, Name: "eligible-2", ContextSMs: []int{23, 23, 23}, NumTasks: 26,
			HorizonSec: 6, Seed: 1, GPU: eligibleGPU(1)},
	}
	cache := memo.New()
	sess := NewSession(cache)
	for _, cfg := range cfgs {
		want, err := NewSession(cache).Run(cfg)
		if err != nil {
			t.Fatalf("%s fresh session: %v", cfg.Name, err)
		}
		got, err := sess.Run(cfg)
		if err != nil {
			t.Fatalf("%s reused session: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: reused session differs from fresh\nwant %+v\ngot  %+v",
				cfg.Name, want, got)
		}
	}
}

// TestFastForwardReplaysDrops fast-forwards a cell whose recorded cycle
// drops jobs, so the collector's replayed block holds empty (NaN) response
// slots that every copy repeats: 30 tasks on two 1.0x contexts shed load in
// steady state. The run must DeepEqual the same cell simulated in full, and
// the drops must scale with the cycles skipped — at least one per cycle —
// which shows the recorded cycle carried them. Devices 0 and an explicit
// fleet of one (Devices 1) both fast-forward: they are the same run.
func TestFastForwardReplaysDrops(t *testing.T) {
	cache := memo.New()
	for _, devices := range []int{0, 1} {
		cfg := RunConfig{
			Kind: KindSGPRS, Name: "drops", ContextSMs: ContextPool(2, 1.0, speedup.DeviceSMs),
			NumTasks: 30, HorizonSec: 20, Seed: 1, GPU: eligibleGPU(1), Devices: devices,
		}
		ref := cfg
		ref.DisableFastForward = true
		want, err := NewSession(cache).Run(ref)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewSession(cache).Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		skipped := got.FastForward.CyclesSkipped
		if skipped == 0 || uint64(got.Summary.Dropped) < skipped {
			t.Fatalf("devices=%d: %d cycles skipped with %d drops: the replayed cycle drops nothing",
				devices, skipped, got.Summary.Dropped)
		}
		got.FastForward = metrics.FFStats{}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("devices=%d: fast-forward differs from full simulation\nwant %+v\ngot  %+v", devices, want, got)
		}
	}
}
