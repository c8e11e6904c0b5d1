package gpu

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/speedup"
)

// incrScenario is one randomized workload, replayable onto any device: a
// context/stream layout plus per-stream kernel chains with staggered
// submission times. Ratios span under- and over-subscription, so the
// generated runs exercise all three recompute tiers and the transitions
// between them.
type incrScenario struct {
	cfg      Config
	contexts []incrContext
	// submits are (delay, context, stream, kernel) tuples; kernels on one
	// stream serialise, so later submissions on a busy stream queue.
	submits []incrSubmit
}

type incrContext struct {
	sms     int
	streams []Priority
}

type incrSubmit struct {
	at      des.Time
	ctx     int
	stream  int
	shares  []speedup.WorkShare
	fixedMS float64
}

// randomScenario draws a workload. The config varies the aggregate ceiling
// (tight, calibrated, effectively unbounded) and the contention terms, so
// ceiling-bound, jittered, and pure regimes all occur.
func randomScenario(rng *rand.Rand) incrScenario {
	cfg := DefaultConfig()
	cfg.Seed = rng.Uint64()
	switch rng.Intn(3) {
	case 0:
		cfg.AggregateGainCap = 4 + 20*rng.Float64() // often binding
	case 1:
		cfg.AggregateGainCap = 1e9 // never binding
	}
	if rng.Intn(2) == 0 {
		cfg.ContentionPenalty = 0.05 * rng.Float64()
		cfg.ContentionJitter = 0.1 * rng.Float64()
	}
	sc := incrScenario{cfg: cfg}
	classes := speedup.Classes()
	nCtx := 1 + rng.Intn(4)
	for c := 0; c < nCtx; c++ {
		ctx := incrContext{sms: 1 + rng.Intn(cfg.TotalSMs)}
		for s := 0; s < 1+rng.Intn(4); s++ {
			p := LowPriority
			if rng.Intn(2) == 0 {
				p = HighPriority
			}
			ctx.streams = append(ctx.streams, p)
		}
		sc.contexts = append(sc.contexts, ctx)
	}
	for c, ctx := range sc.contexts {
		for s := range ctx.streams {
			for k := 0; k < 1+rng.Intn(5); k++ {
				sub := incrSubmit{
					at:     des.FromMicros(float64(rng.Intn(4000))),
					ctx:    c,
					stream: s,
				}
				if rng.Intn(8) == 0 {
					sub.fixedMS = 0.2 * rng.Float64()
				}
				if rng.Intn(8) != 0 {
					n := 1 + rng.Intn(3)
					for i := 0; i < n; i++ {
						sub.shares = append(sub.shares, speedup.WorkShare{
							Class: classes[rng.Intn(len(classes))],
							Work:  0.2 + 4*rng.Float64(),
						})
					}
				} else if sub.fixedMS == 0 {
					sub.fixedMS = 0.1
				}
				sc.submits = append(sc.submits, sub)
			}
		}
	}
	return sc
}

// buildRun materialises the scenario on a fresh engine/device pair and
// returns the kernels in construction order plus a completion log.
func buildRun(t *testing.T, sc incrScenario, disableIncremental bool) (*des.Engine, *Device, []*Kernel, *[]string) {
	t.Helper()
	cfg := sc.cfg
	cfg.DisableIncremental = disableIncremental
	eng := des.NewEngine()
	dev, err := NewDevice(eng, speedup.DefaultModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([][]*Stream, len(sc.contexts))
	for c, ic := range sc.contexts {
		ctx, err := dev.CreateContext(fmt.Sprintf("c%d", c), ic.sms)
		if err != nil {
			t.Fatal(err)
		}
		for s, p := range ic.streams {
			streams[c] = append(streams[c], ctx.AddStream(fmt.Sprintf("s%d", s), p))
		}
	}
	log := &[]string{}
	kernels := make([]*Kernel, len(sc.submits))
	for i, sub := range sc.submits {
		i, sub := i, sub
		k := &Kernel{
			Label:   fmt.Sprintf("k%d", i),
			Shares:  sub.shares,
			FixedMS: sub.fixedMS,
		}
		k.OnComplete = func(now des.Time) {
			*log = append(*log, fmt.Sprintf("%s@%d", k.Label, int64(now)))
		}
		kernels[i] = k
		eng.ScheduleFunc(sub.at, "submit", func(des.Time) {
			streams[sub.ctx][sub.stream].Submit(k)
		})
	}
	return eng, dev, kernels, log
}

// TestIncrementalMatchesReferenceEventForEvent is the randomized cross-check
// of DESIGN.md §10: the incremental engine and the retained full-recompute
// reference run the same generated workloads in lockstep, and after every
// single event the clocks and the complete per-kernel execution state must
// agree to the last float bit.
func TestIncrementalMatchesReferenceEventForEvent(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		sc := randomScenario(rng)
		engInc, devInc, ksInc, logInc := buildRun(t, sc, false)
		engRef, devRef, ksRef, logRef := buildRun(t, sc, true)
		step := 0
		for {
			aInc := engInc.Step()
			aRef := engRef.Step()
			if aInc != aRef {
				t.Fatalf("trial %d step %d: engines diverge (inc fired=%v ref fired=%v)", trial, step, aInc, aRef)
			}
			if !aInc {
				break
			}
			if engInc.Now() != engRef.Now() {
				t.Fatalf("trial %d step %d: clock %v vs %v", trial, step, engInc.Now(), engRef.Now())
			}
			for i := range ksInc {
				ki, kr := ksInc[i], ksRef[i]
				if math.Float64bits(ki.rate) != math.Float64bits(kr.rate) ||
					math.Float64bits(ki.effSMs) != math.Float64bits(kr.effSMs) ||
					math.Float64bits(ki.remainingWork) != math.Float64bits(kr.remainingWork) ||
					math.Float64bits(ki.remainingFixed) != math.Float64bits(kr.remainingFixed) {
					t.Fatalf("trial %d step %d: kernel %s state diverges:\n inc rate=%x eff=%x work=%x fixed=%x\n ref rate=%x eff=%x work=%x fixed=%x",
						trial, step, ki.Label,
						math.Float64bits(ki.rate), math.Float64bits(ki.effSMs), math.Float64bits(ki.remainingWork), math.Float64bits(ki.remainingFixed),
						math.Float64bits(kr.rate), math.Float64bits(kr.effSMs), math.Float64bits(kr.remainingWork), math.Float64bits(kr.remainingFixed))
				}
			}
			step++
		}
		if devInc.CompletedKernels() != uint64(len(sc.submits)) {
			t.Fatalf("trial %d: %d of %d kernels completed", trial, devInc.CompletedKernels(), len(sc.submits))
		}
		if math.Float64bits(devInc.workDone) != math.Float64bits(devRef.workDone) ||
			math.Float64bits(devInc.busySMTime) != math.Float64bits(devRef.busySMTime) {
			t.Fatalf("trial %d: accounting diverges: work %x vs %x, busy %x vs %x", trial,
				math.Float64bits(devInc.workDone), math.Float64bits(devRef.workDone),
				math.Float64bits(devInc.busySMTime), math.Float64bits(devRef.busySMTime))
		}
		if fmt.Sprint(*logInc) != fmt.Sprint(*logRef) {
			t.Fatalf("trial %d: completion logs diverge:\n%v\n%v", trial, *logInc, *logRef)
		}
		if fast, lean, full := devRef.RecomputeStats(); fast != 0 || lean != 0 || full == 0 {
			t.Fatalf("trial %d: reference device took incremental tiers (fast=%d lean=%d full=%d)", trial, fast, lean, full)
		}
	}
}

// TestRecomputeTiersTaken pins that the tiers actually fire in the regimes
// they were built for — a fast path that never runs would make the
// equivalence suite vacuously green.
func TestRecomputeTiersTaken(t *testing.T) {
	submitChains := func(dev *Device, ctxs []*Context, perStream int) {
		for _, ctx := range ctxs {
			for _, s := range ctx.Streams() {
				for i := 0; i < perStream; i++ {
					s.Submit(convKernel("k", 2))
				}
			}
		}
	}

	// Two rigid half-device contexts, huge ceiling: every transition must
	// take the dirty-context fast path.
	cfg := quietConfig()
	eng, dev := newTestDevice(t, cfg)
	a, _ := dev.CreateContext("a", 34)
	b, _ := dev.CreateContext("b", 34)
	a.AddStream("s0", LowPriority)
	a.AddStream("s1", HighPriority)
	b.AddStream("s0", LowPriority)
	submitChains(dev, []*Context{a, b}, 4)
	eng.Run()
	if fast, lean, full := dev.RecomputeStats(); fast == 0 || lean != 0 || full != 0 {
		t.Errorf("rigid pool with slack ceiling: fast=%d lean=%d full=%d, want all fast", fast, lean, full)
	}

	// Same layout with a binding ceiling: the bound cannot clear it, so
	// the lean tier must decide (and never the full sweep — ratio stays
	// at 1).
	cfg = quietConfig()
	cfg.AggregateGainCap = 8
	eng, dev = newTestDevice(t, cfg)
	a, _ = dev.CreateContext("a", 34)
	b, _ = dev.CreateContext("b", 34)
	a.AddStream("s0", LowPriority)
	a.AddStream("s1", LowPriority)
	b.AddStream("s0", LowPriority)
	submitChains(dev, []*Context{a, b}, 4)
	eng.Run()
	if _, lean, full := dev.RecomputeStats(); lean == 0 || full != 0 {
		t.Errorf("ceiling-bound rigid pool: lean=%d full=%d, want lean only", lean, full)
	}

	// Over-subscribed pool: whenever both contexts are busy the ratio
	// exceeds 1 and the full sweep must run.
	eng, dev = newTestDevice(t, quietConfig())
	a, _ = dev.CreateContext("a", 68)
	b, _ = dev.CreateContext("b", 68)
	a.AddStream("s0", LowPriority)
	b.AddStream("s0", LowPriority)
	submitChains(dev, []*Context{a, b}, 4)
	eng.Run()
	if _, _, full := dev.RecomputeStats(); full == 0 {
		t.Errorf("over-subscribed pool never took the full sweep")
	}

	// Reference mode: only the full sweep, whatever the regime.
	cfg = quietConfig()
	cfg.DisableIncremental = true
	eng, dev = newTestDevice(t, cfg)
	a, _ = dev.CreateContext("a", 34)
	a.AddStream("s0", LowPriority)
	submitChains(dev, []*Context{a}, 3)
	eng.Run()
	if fast, lean, full := dev.RecomputeStats(); fast != 0 || lean != 0 || full == 0 {
		t.Errorf("reference mode: fast=%d lean=%d full=%d, want full only", fast, lean, full)
	}
}

// TestIncrementalStateMaintenance pins the incrementally maintained
// aggregates against re-derivation from the running set at quiescence.
func TestIncrementalStateMaintenance(t *testing.T) {
	eng, dev := newTestDevice(t, quietConfig())
	a, _ := dev.CreateContext("a", 40)
	b, _ := dev.CreateContext("b", 40)
	sa := a.AddStream("hi", HighPriority)
	sb := b.AddStream("lo", LowPriority)
	sa.Submit(convKernel("ka", 60))
	sb.Submit(convKernel("kb", 50))
	// Sample mid-run, while both kernels execute.
	eng.AfterFunc(des.FromMillis(1), "sample", func(des.Time) {
		if a.weightSum != 3 || b.weightSum != 1 {
			t.Errorf("weight sums = %v/%v, want 3/1", a.weightSum, b.weightSum)
		}
		if dev.busyDemand != 80 {
			t.Errorf("busyDemand = %d, want 80", dev.busyDemand)
		}
		if len(a.running) != 1 || a.running[0].Label != "ka" {
			t.Errorf("context a running list = %v", a.running)
		}
	})
	eng.Run()
	if a.weightSum != 0 || b.weightSum != 0 || dev.busyDemand != 0 {
		t.Errorf("drained device retains weight/demand: %v/%v/%d", a.weightSum, b.weightSum, dev.busyDemand)
	}
	if len(a.running) != 0 || len(b.running) != 0 || len(dev.running) != 0 {
		t.Errorf("drained device retains running lists")
	}
	if dev.gainBoundQ != 0 {
		t.Errorf("drained device retains gain bound %d", dev.gainBoundQ)
	}
}
