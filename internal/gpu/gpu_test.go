package gpu

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"sgprs/internal/des"
	"sgprs/internal/speedup"
)

// quietConfig removes stochastic and overhead terms so tests can predict
// latencies in closed form.
func quietConfig() Config {
	cfg := DefaultConfig()
	cfg.LaunchOverhead = 0
	cfg.ContentionPenalty = 0
	cfg.ContentionJitter = 0
	cfg.AggregateGainCap = 1e9
	return cfg
}

func newTestDevice(t *testing.T, cfg Config) (*des.Engine, *Device) {
	t.Helper()
	eng := des.NewEngine()
	dev, err := NewDevice(eng, speedup.DefaultModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, dev
}

func convKernel(label string, workMS float64) *Kernel {
	return &Kernel{
		Label:  label,
		Shares: []speedup.WorkShare{{Class: speedup.Conv, Work: workMS}},
	}
}

// TestStreamQueueBoundedWithoutDrain keeps eight kernels queued on one
// stream for ten thousand completions — each completion submits the next —
// so the queue never drains, and requires its backing array to stay bounded
// and the kernels to run in submission order.
func TestStreamQueueBoundedWithoutDrain(t *testing.T) {
	eng, dev := newTestDevice(t, quietConfig())
	ctx, err := dev.CreateContext("c0", 68)
	if err != nil {
		t.Fatal(err)
	}
	s := ctx.AddStream("s0", LowPriority)
	const total = 10000
	var done []int
	var submit func(i int)
	submit = func(i int) {
		k := convKernel("k", 1)
		k.OnComplete = func(des.Time) {
			done = append(done, i)
			if next := i + 9; next < total {
				submit(next)
			}
		}
		s.Submit(k)
	}
	for i := range 9 {
		submit(i)
	}
	peak := 0
	for eng.Step() {
		peak = max(peak, cap(s.queue))
	}
	if peak > 32 {
		t.Errorf("stream queue backing array reached %d with at most 8 queued", peak)
	}
	if len(done) != total {
		t.Fatalf("completed %d kernels, want %d", len(done), total)
	}
	for i, v := range done {
		if v != i {
			t.Fatalf("completion %d was kernel %d", i, v)
		}
	}
}

func TestSingleKernelLatency(t *testing.T) {
	eng, dev := newTestDevice(t, quietConfig())
	ctx, err := dev.CreateContext("c0", 68)
	if err != nil {
		t.Fatal(err)
	}
	s := ctx.AddStream("s0", LowPriority)

	var done des.Time
	k := convKernel("k", 32) // 32 single-SM ms
	k.OnComplete = func(now des.Time) { done = now }
	s.Submit(k)
	eng.Run()

	want := 32.0 / speedup.DefaultModel().Gain(speedup.Conv, 68)
	if got := done.Milliseconds(); math.Abs(got-want) > 1e-4 {
		t.Errorf("latency = %.6f ms, want %.6f", got, want)
	}
	if dev.CompletedKernels() != 1 {
		t.Errorf("completed = %d", dev.CompletedKernels())
	}
}

func TestLaunchOverheadDelaysStart(t *testing.T) {
	cfg := quietConfig()
	cfg.LaunchOverhead = des.FromMicros(100)
	eng, dev := newTestDevice(t, cfg)
	ctx, _ := dev.CreateContext("c0", 68)
	s := ctx.AddStream("s0", LowPriority)

	var started des.Time
	k := convKernel("k", 10)
	k.OnStart = func(now des.Time) { started = now }
	s.Submit(k)
	eng.Run()
	if started != des.FromMicros(100) {
		t.Errorf("started at %v, want 100us", started)
	}
}

func TestFixedOnlyKernel(t *testing.T) {
	eng, dev := newTestDevice(t, quietConfig())
	ctx, _ := dev.CreateContext("c0", 34)
	s := ctx.AddStream("s0", LowPriority)
	var done des.Time
	k := &Kernel{Label: "fixed", FixedMS: 2.5, OnComplete: func(n des.Time) { done = n }}
	s.Submit(k)
	eng.Run()
	if math.Abs(done.Milliseconds()-2.5) > 1e-4 {
		t.Errorf("fixed-only latency = %v ms, want 2.5", done.Milliseconds())
	}
}

func TestFixedPlusWorkKernel(t *testing.T) {
	eng, dev := newTestDevice(t, quietConfig())
	ctx, _ := dev.CreateContext("c0", 68)
	s := ctx.AddStream("s0", LowPriority)
	var done des.Time
	k := convKernel("k", 16)
	k.FixedMS = 1.0
	k.OnComplete = func(n des.Time) { done = n }
	s.Submit(k)
	eng.Run()
	want := 1.0 + 16.0/speedup.DefaultModel().Gain(speedup.Conv, 68)
	if got := done.Milliseconds(); math.Abs(got-want) > 1e-4 {
		t.Errorf("latency = %.6f, want %.6f", got, want)
	}
}

func TestStreamSerializesFIFO(t *testing.T) {
	eng, dev := newTestDevice(t, quietConfig())
	ctx, _ := dev.CreateContext("c0", 68)
	s := ctx.AddStream("s0", LowPriority)

	var order []string
	for _, name := range []string{"a", "b", "c"} {
		k := convKernel(name, 10)
		name := name
		k.OnComplete = func(des.Time) { order = append(order, name) }
		s.Submit(k)
	}
	if s.QueueLen() != 2 {
		t.Errorf("queue length = %d, want 2 (one pumped)", s.QueueLen())
	}
	eng.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("completion order = %v", order)
	}
}

func TestIntraContextSharingHalvesSMs(t *testing.T) {
	eng, dev := newTestDevice(t, quietConfig())
	ctx, _ := dev.CreateContext("c0", 68)
	s1 := ctx.AddStream("s1", LowPriority)
	s2 := ctx.AddStream("s2", LowPriority)

	var d1, d2 des.Time
	k1 := convKernel("k1", 32)
	k1.OnComplete = func(n des.Time) { d1 = n }
	k2 := convKernel("k2", 32)
	k2.OnComplete = func(n des.Time) { d2 = n }
	s1.Submit(k1)
	s2.Submit(k2)
	eng.Run()

	want := 32.0 / speedup.DefaultModel().Gain(speedup.Conv, 34)
	if math.Abs(d1.Milliseconds()-want) > 1e-4 || math.Abs(d2.Milliseconds()-want) > 1e-4 {
		t.Errorf("latencies = %.4f, %.4f ms; want both %.4f (34 SMs each)",
			d1.Milliseconds(), d2.Milliseconds(), want)
	}
}

func TestPriorityWeightedSharing(t *testing.T) {
	eng, dev := newTestDevice(t, quietConfig())
	ctx, _ := dev.CreateContext("c0", 68)
	hi := ctx.AddStream("hi", HighPriority)
	lo := ctx.AddStream("lo", LowPriority)

	var dHi, dLo des.Time
	kh := convKernel("kh", 32)
	kh.OnComplete = func(n des.Time) { dHi = n }
	kl := convKernel("kl", 32)
	kl.OnComplete = func(n des.Time) { dLo = n }
	hi.Submit(kh)
	lo.Submit(kl)
	eng.Run()

	if dHi >= dLo {
		t.Errorf("high-priority kernel (%v) should finish before low (%v)", dHi, dLo)
	}
	// While both run, high holds 3/4 of the context: 51 vs 17 SMs.
	m := speedup.DefaultModel()
	if g51, g17 := m.Gain(speedup.Conv, 51), m.Gain(speedup.Conv, 17); g51 <= g17 {
		t.Fatalf("model sanity: %v <= %v", g51, g17)
	}
}

func TestOverSubscriptionScalesShares(t *testing.T) {
	eng, dev := newTestDevice(t, quietConfig())
	// Two contexts of 68 SMs each: 2x over-subscription when both busy.
	c1, _ := dev.CreateContext("c1", 68)
	c2, _ := dev.CreateContext("c2", 68)
	s1 := c1.AddStream("s", LowPriority)
	s2 := c2.AddStream("s", LowPriority)

	var d1 des.Time
	k1 := convKernel("k1", 32)
	k1.OnComplete = func(n des.Time) { d1 = n }
	k2 := convKernel("k2", 32)
	s1.Submit(k1)
	s2.Submit(k2)
	eng.Run()

	// Each kernel effectively gets 34 SMs while both are running.
	want := 32.0 / speedup.DefaultModel().Gain(speedup.Conv, 34)
	if math.Abs(d1.Milliseconds()-want) > 1e-4 {
		t.Errorf("oversubscribed latency = %.4f, want %.4f", d1.Milliseconds(), want)
	}
}

func TestContentionPenaltySlowsOverSubscribed(t *testing.T) {
	run := func(penalty float64) des.Time {
		cfg := quietConfig()
		// The penalty degrades the bandwidth ceiling, so it only
		// shows when the ceiling binds.
		cfg.AggregateGainCap = 30
		cfg.ContentionPenalty = penalty
		eng, dev := newTestDevice(t, cfg)
		c1, _ := dev.CreateContext("c1", 68)
		c2, _ := dev.CreateContext("c2", 68)
		var done des.Time
		k1 := convKernel("k1", 32)
		k1.OnComplete = func(n des.Time) { done = n }
		c1.AddStream("s", LowPriority).Submit(k1)
		c2.AddStream("s", LowPriority).Submit(convKernel("k2", 32))
		eng.Run()
		return done
	}
	if noPen, pen := run(0), run(0.5); pen <= noPen {
		t.Errorf("contention penalty did not slow execution: %v vs %v", pen, noPen)
	}
	// Penalty must not apply when the device is not over-subscribed.
	cfg := quietConfig()
	cfg.ContentionPenalty = 0.5
	eng, dev := newTestDevice(t, cfg)
	ctx, _ := dev.CreateContext("c", 68)
	var done des.Time
	k := convKernel("k", 32)
	k.OnComplete = func(n des.Time) { done = n }
	ctx.AddStream("s", LowPriority).Submit(k)
	eng.Run()
	want := 32.0 / speedup.DefaultModel().Gain(speedup.Conv, 68)
	if math.Abs(done.Milliseconds()-want) > 1e-4 {
		t.Errorf("penalty applied without over-subscription: %v vs %v", done.Milliseconds(), want)
	}
}

func TestContentionJitterIsDeterministic(t *testing.T) {
	run := func(seed uint64) des.Time {
		cfg := quietConfig()
		cfg.ContentionJitter = 0.5
		cfg.Seed = seed
		eng, dev := newTestDevice(t, cfg)
		c1, _ := dev.CreateContext("c1", 68)
		c2, _ := dev.CreateContext("c2", 68)
		var done des.Time
		k1 := convKernel("k1", 32)
		k1.OnComplete = func(n des.Time) { done = n }
		c1.AddStream("s", LowPriority).Submit(k1)
		c2.AddStream("s", LowPriority).Submit(convKernel("k2", 32))
		eng.Run()
		return done
	}
	if run(7) != run(7) {
		t.Error("same seed produced different timings")
	}
	if run(7) == run(8) {
		t.Error("different seeds produced identical jittered timings")
	}
}

func TestAggregateGainCapLimitsThroughput(t *testing.T) {
	// Four non-oversubscribed contexts of 17 SMs running conv: raw gain
	// sum = 4·g(17); with a cap of half that, execution takes twice as
	// long.
	m := speedup.DefaultModel()
	rawSum := 4 * m.Gain(speedup.Conv, 17)

	run := func(ceiling float64) des.Time {
		cfg := quietConfig()
		cfg.AggregateGainCap = ceiling
		eng, dev := newTestDevice(t, cfg)
		var done des.Time
		for i := 0; i < 4; i++ {
			ctx, _ := dev.CreateContext("c", 17)
			k := convKernel("k", 10)
			if i == 0 {
				k.OnComplete = func(n des.Time) { done = n }
			}
			ctx.AddStream("s", LowPriority).Submit(k)
		}
		eng.Run()
		return done
	}
	uncapped := run(1e9)
	capped := run(rawSum / 2)
	ratio := float64(capped) / float64(uncapped)
	if math.Abs(ratio-2) > 1e-4 {
		t.Errorf("cap at half raw gain should double latency; ratio = %v", ratio)
	}
}

func TestWorkConservation(t *testing.T) {
	cfg := DefaultConfig() // realistic: jitter, penalty, cap all active
	eng, dev := newTestDevice(t, cfg)
	c1, _ := dev.CreateContext("c1", 51)
	c2, _ := dev.CreateContext("c2", 51)
	streams := []*Stream{
		c1.AddStream("h", HighPriority), c1.AddStream("l", LowPriority),
		c2.AddStream("h", HighPriority), c2.AddStream("l", LowPriority),
	}
	var submitted float64
	for i := 0; i < 40; i++ {
		w := 1.0 + float64(i%7)
		submitted += w
		streams[i%len(streams)].Submit(convKernel("k", w))
	}
	eng.Run()
	if dev.CompletedKernels() != 40 {
		t.Fatalf("completed %d kernels, want 40", dev.CompletedKernels())
	}
	if math.Abs(dev.workDone-submitted) > 1e-3 {
		t.Errorf("work retired %.6f, submitted %.6f", dev.workDone, submitted)
	}
	if dev.Utilization() <= 0 || dev.Utilization() > 1 {
		t.Errorf("utilization = %v", dev.Utilization())
	}
}

func TestDemandRatio(t *testing.T) {
	eng, dev := newTestDevice(t, quietConfig())
	c1, _ := dev.CreateContext("c1", 68)
	c2, _ := dev.CreateContext("c2", 68)
	if r := dev.DemandRatio(); r != 0 {
		t.Errorf("idle demand ratio = %v", r)
	}
	k := convKernel("k1", 50)
	var during float64
	k2 := convKernel("k2", 1)
	k2.OnStart = func(des.Time) { during = dev.DemandRatio() }
	c1.AddStream("s", LowPriority).Submit(k)
	c2.AddStream("s", LowPriority).Submit(k2)
	eng.Run()
	if during != 2.0 {
		t.Errorf("demand ratio with both contexts busy = %v, want 2", during)
	}
}

func TestCreateContextErrors(t *testing.T) {
	_, dev := newTestDevice(t, quietConfig())
	if _, err := dev.CreateContext("bad", 0); err == nil {
		t.Error("0-SM context accepted")
	}
	if _, err := dev.CreateContext("bad", -3); err == nil {
		t.Error("negative-SM context accepted")
	}
	if _, err := dev.CreateContext("bad", 69); err == nil {
		t.Error("context larger than device accepted")
	}
	ctx, err := dev.CreateContext("ok", 68)
	if err != nil || ctx.SMs() != 68 || ctx.ID() != 0 {
		t.Errorf("context creation: %v %+v", err, ctx)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{TotalSMs: 68},
		{TotalSMs: 68, AggregateGainCap: 26, LaunchOverhead: -1},
		{TotalSMs: 68, AggregateGainCap: 26, ContentionPenalty: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestNewDeviceErrors(t *testing.T) {
	if _, err := NewDevice(nil, speedup.DefaultModel(), DefaultConfig()); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewDevice(des.NewEngine(), nil, DefaultConfig()); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewDevice(des.NewEngine(), speedup.DefaultModel(), Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSubmitTwicePanics(t *testing.T) {
	_, dev := newTestDevice(t, quietConfig())
	ctx, _ := dev.CreateContext("c", 68)
	s := ctx.AddStream("s", LowPriority)
	k := convKernel("k", 1)
	s.Submit(k)
	defer func() {
		if recover() == nil {
			t.Fatal("double submit did not panic")
		}
	}()
	s.Submit(k)
}

func TestEmptyKernelPanics(t *testing.T) {
	_, dev := newTestDevice(t, quietConfig())
	ctx, _ := dev.CreateContext("c", 68)
	s := ctx.AddStream("s", LowPriority)
	defer func() {
		if recover() == nil {
			t.Fatal("empty kernel did not panic")
		}
	}()
	s.Submit(&Kernel{Label: "empty"})
}

// TestAddStreamRejectsUnknownPriority: the rate sweep indexes per-priority
// shares by Priority, so a stream of any other priority must be refused up
// front, naming the value, instead of being weighted as low.
func TestAddStreamRejectsUnknownPriority(t *testing.T) {
	_, dev := newTestDevice(t, quietConfig())
	ctx, _ := dev.CreateContext("c", 68)
	for _, p := range []Priority{2, -1} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, p.String()) {
					t.Errorf("AddStream(%d) panic = %q, want one naming %s", int(p), msg, p)
				}
			}()
			ctx.AddStream("s", p)
		}()
	}
	if len(ctx.Streams()) != 0 {
		t.Errorf("rejected streams were added: %d", len(ctx.Streams()))
	}
}

// TestKernelPastClockKeysNever: a kernel whose remainder lies past the
// nanosecond clock is keyed at des.Never instead of wrapping to a negative
// instant. The device keeps running the other kernels, the unfinishable one
// is still running at the horizon, and Abort still evicts it and parks the
// timer.
func TestKernelPastClockKeysNever(t *testing.T) {
	eng, dev := newTestDevice(t, quietConfig())
	ctx, _ := dev.CreateContext("c", 68)
	huge := convKernel("huge", 1e300)
	ctx.AddStream("s0", LowPriority).Submit(huge)
	ctx.AddStream("s1", LowPriority).Submit(convKernel("small", 1))
	eng.RunUntil(des.Second)
	if !huge.Running() || huge.finAt != des.Never {
		t.Fatalf("huge kernel running=%v key=%v, want running at never", huge.Running(), huge.finAt)
	}
	if dev.CompletedKernels() != 1 {
		t.Errorf("completed %d kernels, want the small one", dev.CompletedKernels())
	}
	dev.Abort(huge, eng.Now())
	if huge.Running() || huge.Stream() != nil || len(dev.running) != 0 || eng.Pending() != 0 {
		t.Errorf("abort left running=%v stream=%v running set=%d pending=%d",
			huge.Running(), huge.Stream(), len(dev.running), eng.Pending())
	}
}

func TestIsolatedLatencyMS(t *testing.T) {
	m := speedup.DefaultModel()
	k := convKernel("k", 32)
	k.FixedMS = 1
	want := 1 + 32/m.Gain(speedup.Conv, 68)
	if got := k.IsolatedLatencyMS(m, 68); math.Abs(got-want) > 1e-12 {
		t.Errorf("IsolatedLatencyMS = %v, want %v", got, want)
	}
	fixedOnly := &Kernel{Label: "f", FixedMS: 3}
	if got := fixedOnly.IsolatedLatencyMS(m, 68); got != 3 {
		t.Errorf("fixed-only = %v, want 3", got)
	}
}

func TestStringers(t *testing.T) {
	_, dev := newTestDevice(t, quietConfig())
	ctx, _ := dev.CreateContext("pool0", 34)
	s := ctx.AddStream("hi", HighPriority)
	if got := ctx.String(); got != "ctx0(pool0,34sm)" {
		t.Errorf("context string = %q", got)
	}
	if got := s.String(); got != "pool0/s0(high)" {
		t.Errorf("stream string = %q", got)
	}
	if LowPriority.String() != "low" || HighPriority.String() != "high" {
		t.Error("priority names wrong")
	}
	if Priority(9).String() != "priority(9)" {
		t.Error("unknown priority name wrong")
	}
}

func TestContextAccessors(t *testing.T) {
	eng, dev := newTestDevice(t, quietConfig())
	ctx, _ := dev.CreateContext("c", 68)
	s1 := ctx.AddStream("a", HighPriority)
	ctx.AddStream("b", LowPriority)
	if len(ctx.Streams()) != 2 || ctx.Name() != "c" {
		t.Error("context accessors wrong")
	}
	if ctx.Busy() || ctx.QueuedKernels() != 0 {
		t.Error("fresh context should be idle")
	}
	s1.Submit(convKernel("k1", 5))
	s1.Submit(convKernel("k2", 5))
	if !ctx.Busy() || ctx.QueuedKernels() != 2 {
		t.Errorf("busy=%v queued=%d, want true/2", ctx.Busy(), ctx.QueuedKernels())
	}
	eng.Run()
	if ctx.Busy() || ctx.ActiveKernels() != 0 {
		t.Error("context should drain")
	}
	if len(dev.Contexts()) != 1 {
		t.Error("device context list wrong")
	}
}

// Property: with sharing, total completion time of n identical conv kernels
// in one context is monotonically non-decreasing in n, and all work retires.
func TestSharingMonotoneProperty(t *testing.T) {
	f := func(rawN uint8) bool {
		n := int(rawN%6) + 1
		eng, dev := newTestDevice(t, quietConfig())
		ctx, _ := dev.CreateContext("c", 68)
		var last des.Time
		for i := 0; i < n; i++ {
			s := ctx.AddStream("s", LowPriority)
			k := convKernel("k", 10)
			k.OnComplete = func(now des.Time) {
				if now > last {
					last = now
				}
			}
			s.Submit(k)
		}
		eng.Run()
		if dev.CompletedKernels() != uint64(n) {
			return false
		}
		// n concurrent kernels at 68/n SMs each: makespan must be at
		// least the single-kernel latency and grow with n.
		single := 10 / speedup.DefaultModel().Gain(speedup.Conv, 68)
		return last.Milliseconds() >= single-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalStateMaintenance pins the incrementally maintained
// aggregates the rate sweep reads (weight sums, busy demand) against
// re-derivation from the running set, mid-run and drained.
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
	})
	eng.Run()
	if a.weightSum != 0 || b.weightSum != 0 || dev.busyDemand != 0 || len(dev.running) != 0 {
		t.Errorf("drained device retains weight/demand/running: %v/%v/%d/%d", a.weightSum, b.weightSum, dev.busyDemand, len(dev.running))
	}
}
