package gpu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/speedup"
)

// devScenario is one randomized workload, replayable onto any device: a
// context/stream layout plus per-stream kernel chains with staggered
// submission times. Ratios span under- and over-subscription, and the
// generated runs cross between them.
type devScenario struct {
	cfg      Config
	contexts []devContext
	// submits are (delay, context, stream, kernel) tuples; kernels on one
	// stream serialise, so later submissions on a busy stream queue.
	submits []devSubmit
}

type devContext struct {
	sms     int
	streams []Priority
}

type devSubmit struct {
	at      des.Time
	ctx     int
	stream  int
	shares  []speedup.WorkShare
	fixedMS float64
}

// randomScenario draws a workload. The config varies the aggregate ceiling
// (tight, calibrated, effectively unbounded) and the contention terms, so
// ceiling-bound, jittered, and pure regimes all occur.
func randomScenario(rng *rand.Rand) devScenario {
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
	sc := devScenario{cfg: cfg}
	classes := speedup.Classes()
	nCtx := 1 + rng.Intn(4)
	for c := 0; c < nCtx; c++ {
		ctx := devContext{sms: 1 + rng.Intn(cfg.TotalSMs)}
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
				sub := devSubmit{
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
// returns them with a completion log.
func buildRun(t *testing.T, sc devScenario) (*des.Engine, *Device, *[]string) {
	t.Helper()
	eng := des.NewEngine()
	dev, err := NewDevice(eng, speedup.DefaultModel(), sc.cfg)
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
	for i, sub := range sc.submits {
		i, sub := i, sub
		k := &Kernel{
			Arg:     fmt.Sprintf("k%d", i),
			Shares:  sub.shares,
			FixedMS: sub.fixedMS,
		}
		k.OnDone = func(_ *Kernel, now des.Time) {
			*log = append(*log, fmt.Sprintf("%v@%d", k.Arg, int64(now)))
		}
		eng.ScheduleFunc(sub.at, "submit", func(des.Time) {
			streams[sub.ctx][sub.stream].Submit(k)
		})
	}
	return eng, dev, log
}

// rateEngineDigest pins the rate engine's full trajectory over 200
// randomScenario draws: under- and over-subscribed pools, binding and slack
// aggregate ceilings, jittered and pure contention. Any change to a share,
// rate, banked remainder or completion key, at any event, moves it.
const rateEngineDigest = "6861c5cb9e02b50cc0dcc4c6d7e41303ca7bee552108a1744f05091c53ee04f5"

// TestRateEngineEventDigest drives each scenario event by event and folds,
// after every event, the clock and every running kernel's rate, effective
// share, remainders and completion key (instant and engine sequence number)
// into one SHA-256; the per-trial accounting totals and completion log are
// folded in at the end. The digest was computed while the rate engine still
// had incremental recompute tiers beside its full sweep, and both produced
// it; it pins that the one full sweep reproduces the old trajectory bit for
// bit.
func TestRateEngineEventDigest(t *testing.T) {
	h := sha256.New()
	var buf []byte
	f64 := func(v float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)) }
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	for trial := 0; trial < 200; trial++ {
		sc := randomScenario(rand.New(rand.NewSource(int64(trial) + 1)))
		eng, dev, log := buildRun(t, sc)
		for eng.Step() {
			buf = buf[:0]
			u64(uint64(eng.Now()))
			u64(uint64(len(dev.running)))
			for _, k := range dev.running {
				f64(k.rate)
				f64(k.effSMs)
				f64(k.remainingWork)
				f64(k.remainingFixed)
				u64(uint64(k.finAt))
				u64(k.finSeq)
			}
			h.Write(buf)
		}
		if dev.completedKernels != uint64(len(sc.submits)) {
			t.Fatalf("trial %d: %d of %d kernels completed", trial, dev.completedKernels, len(sc.submits))
		}
		buf = buf[:0]
		f64(dev.workDone)
		f64(dev.busySMTime)
		h.Write(buf)
		for _, line := range *log {
			h.Write([]byte(line))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != rateEngineDigest {
		t.Fatalf("rate engine digest %s, want %s", got, rateEngineDigest)
	}
}
