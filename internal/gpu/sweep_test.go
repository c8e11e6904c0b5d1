package gpu

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/speedup"
)

// mixedKernel carries work in three classes, so its gain coefficients are
// sums whose rounding depends on how many times each share is added.
func mixedKernel(label string) *Kernel {
	return &Kernel{
		Arg: label,
		Shares: []speedup.WorkShare{
			{Class: speedup.Conv, Work: 0.7},
			{Class: speedup.Linear, Work: 0.1},
			{Class: speedup.ReLU, Work: 0.2},
		},
	}
}

// runningLabels lists the device's running set in admission order.
func runningLabels(dev *Device) string {
	var b strings.Builder
	for i, k := range dev.running {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprint(&b, k.Arg)
	}
	return b.String()
}

// mustPanic runs f and returns the panic message, failing if f returns.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

// startRunning starts one kernel per label on its own stream of one
// context, in label order; "b" is the shortest, so it leaves first.
func startRunning(t *testing.T, labels ...string) (*des.Engine, *Device, map[string]*Kernel) {
	eng, dev := newTestDevice(t, quietConfig())
	ctx, _ := dev.CreateContext("c0", 60)
	ks := map[string]*Kernel{}
	for _, l := range labels {
		work := 40.0
		if l == "b" {
			work = 10
		}
		ks[l] = convKernel(l, work)
		ctx.AddStream(l, LowPriority).Submit(ks[l])
	}
	return eng, dev, ks
}

// TestSweepRemovalKeepsAdmissionOrder: the sweep compacts a leaving kernel
// out of the middle of the running set, whether it completes or is aborted,
// and the others keep their admission order (a swap-remove would reorder
// the four-kernel set).
func TestSweepRemovalKeepsAdmissionOrder(t *testing.T) {
	for _, set := range [][]string{{"a", "b", "c"}, {"a", "b", "c", "d"}} {
		all := strings.Join(set, ",")
		want := strings.Replace(all, "b,", "", 1)
		t.Run("complete/"+all, func(t *testing.T) {
			eng, dev, ks := startRunning(t, set...)
			var got string
			ks["b"].OnDone = func(*Kernel, des.Time) { got = runningLabels(dev) }
			eng.Run()
			if got != want {
				t.Errorf("running after b completed = %q, want %q", got, want)
			}
		})
		t.Run("abort/"+all, func(t *testing.T) {
			eng, dev, ks := startRunning(t, set...)
			var got string
			eng.AfterFunc(des.FromMillis(0.1), "abort", func(now des.Time) {
				if runningLabels(dev) != all {
					t.Fatalf("running before abort = %q, want %q", runningLabels(dev), all)
				}
				dev.Abort(ks["b"], now)
				got = runningLabels(dev)
			})
			eng.Run()
			if got != want {
				t.Errorf("running after b aborted = %q, want %q", got, want)
			}
			if ks["b"].Stream() != nil || ks["b"].Running() {
				t.Error("aborted kernel still attached")
			}
			if n := int(dev.completedKernels); n != len(set)-1 {
				t.Errorf("completed = %d, want %d", n, len(set)-1)
			}
		})
	}
}

// TestSweepBanksLeavingKernel: the leaving kernel's last interval is banked
// into the busy SM-time, at its final share, before it drops out.
func TestSweepBanksLeavingKernel(t *testing.T) {
	t.Run("complete", func(t *testing.T) {
		eng, dev := newTestDevice(t, quietConfig())
		ctx, _ := dev.CreateContext("c0", 68)
		k := convKernel("k", 32)
		var done des.Time
		k.OnDone = func(_ *Kernel, now des.Time) { done = now }
		ctx.AddStream("s", LowPriority).Submit(k)
		eng.Run()
		dtMS := float64(done) / float64(des.Millisecond)
		if want := 68 * dtMS / 1000; dev.busySMTime != want {
			t.Errorf("busySMTime = %v, want %v", dev.busySMTime, want)
		}
	})
	t.Run("abort", func(t *testing.T) {
		eng, dev := newTestDevice(t, quietConfig())
		ctx, _ := dev.CreateContext("c0", 68)
		k := convKernel("k", 320)
		ctx.AddStream("s", LowPriority).Submit(k)
		eng.AfterFunc(des.FromMillis(2), "abort", func(now des.Time) { dev.Abort(k, now) })
		eng.Run()
		if want := 68.0 * 2 / 1000; dev.busySMTime != want {
			t.Errorf("busySMTime = %v, want %v", dev.busySMTime, want)
		}
		if want := 320 - 2*k.aggregateGain(68); k.remainingWork != want {
			t.Errorf("aborted kernel's remaining work = %v, want %v", k.remainingWork, want)
		}
	})
}

// TestAbortResubmitMatchesFreshKernel: a kernel resubmitted after Abort keeps
// its gain coefficients instead of adding its shares again, and its new
// launch is not banked at the old launch's rate, so its first rate and its
// remainders are bit for bit those of a fresh kernel with the same Shares.
func TestAbortResubmitMatchesFreshKernel(t *testing.T) {
	first := func(k *Kernel) (rate, work float64, coeff [3]float64) {
		eng, dev := newTestDevice(t, quietConfig())
		ctx, _ := dev.CreateContext("c0", 50)
		s := ctx.AddStream("s", LowPriority)
		s.Submit(k)
		eng.AfterFunc(des.FromMillis(0.01), "abort", func(now des.Time) { dev.Abort(k, now) })
		eng.AfterFunc(des.FromMillis(0.02), "resubmit", func(des.Time) {
			s.Submit(k)
			// Queued after the launch event, so it samples the new launch.
			eng.AfterFunc(0, "sample", func(des.Time) {
				rate, work, coeff = k.rate, k.remainingWork, [3]float64{k.aggW, k.aggP, k.aggQ}
			})
		})
		eng.Run()
		return rate, work, coeff
	}
	fresh := func(k *Kernel) (rate, work float64, coeff [3]float64) {
		eng, dev := newTestDevice(t, quietConfig())
		ctx, _ := dev.CreateContext("c0", 50)
		ctx.AddStream("s", LowPriority).Submit(k)
		eng.AfterFunc(0, "sample", func(des.Time) {
			rate, work, coeff = k.rate, k.remainingWork, [3]float64{k.aggW, k.aggP, k.aggQ}
		})
		eng.Run()
		return rate, work, coeff
	}
	gotRate, gotWork, gotCoeff := first(mixedKernel("resubmitted"))
	wantRate, wantWork, wantCoeff := fresh(mixedKernel("fresh"))
	if math.Float64bits(gotRate) != math.Float64bits(wantRate) {
		t.Errorf("resubmitted first rate = %v, want %v", gotRate, wantRate)
	}
	if gotWork != wantWork {
		t.Errorf("resubmitted remaining work at start = %v, want %v", gotWork, wantWork)
	}
	if gotCoeff != wantCoeff {
		t.Errorf("resubmitted gain coefficients = %v, want %v", gotCoeff, wantCoeff)
	}
}

// TestEarlyCompletePanics: completing a kernel with work left is an engine
// bug, and the sweep that banks the kernel still reports it.
func TestEarlyCompletePanics(t *testing.T) {
	eng, dev := newTestDevice(t, quietConfig())
	ctx, _ := dev.CreateContext("c0", 68)
	k := convKernel("early", 320)
	ctx.AddStream("s", LowPriority).Submit(k)
	eng.AfterFunc(des.FromMillis(1), "complete", func(now des.Time) { dev.complete(k, now) })
	msg := mustPanic(t, func() { eng.Run() })
	if !strings.Contains(msg, `kernel early completed with`) {
		t.Errorf("panic = %q, want the completed-with-work-left report", msg)
	}
}

// TestNegativeWorkPanicsAtStart: a share turned negative after Submit is
// caught when the kernel starts and its gain coefficients are derived.
func TestNegativeWorkPanicsAtStart(t *testing.T) {
	cfg := quietConfig()
	cfg.LaunchOverhead = des.FromMicros(10)
	eng, dev := newTestDevice(t, cfg)
	ctx, _ := dev.CreateContext("c0", 68)
	k := mixedKernel("neg")
	ctx.AddStream("s", LowPriority).Submit(k)
	k.Shares[1].Work = -1
	msg := mustPanic(t, func() { eng.Run() })
	if !strings.Contains(msg, `kernel neg has negative work`) {
		t.Errorf("panic = %q, want the negative-work report", msg)
	}
	if eng.Now() != cfg.LaunchOverhead {
		t.Errorf("panicked at %v, want the start instant %v", eng.Now(), cfg.LaunchOverhead)
	}
}

// TestUncontendedRateIsAggregateGain: with the ceiling slack and the device
// not over-subscribed, the sweep's scale factor and jitter divisor are both
// exactly 1, so every running kernel's rate is its aggregateGain at its
// share, bit for bit — even with the contention coefficients switched on.
func TestUncontendedRateIsAggregateGain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AggregateGainCap = 1e9
	eng, dev := newTestDevice(t, cfg)
	a, _ := dev.CreateContext("a", 40)
	b, _ := dev.CreateContext("b", 28)
	streams := []*Stream{
		a.AddStream("hi", HighPriority), a.AddStream("lo", LowPriority),
		b.AddStream("hi", HighPriority), b.AddStream("lo", LowPriority),
	}
	samples := 0
	check := func(now des.Time) {
		if dev.DemandRatio() > 1 {
			t.Fatalf("device over-subscribed at %v", now)
		}
		for _, k := range dev.running {
			samples++
			if want := k.aggregateGain(k.effSMs); math.Float64bits(k.rate) != math.Float64bits(want) {
				t.Errorf("%v: %v rate = %v, want aggregateGain(%v) = %v", now, k.Arg, k.rate, k.effSMs, want)
			}
		}
	}
	for i := 0; i < 12; i++ {
		k := mixedKernel(fmt.Sprint("k", i))
		for j := range k.Shares {
			k.Shares[j].Work *= float64(1 + i%5)
		}
		k.OnDone = func(_ *Kernel, now des.Time) { check(now) }
		streams[i%len(streams)].Submit(k)
	}
	for ms := 0.05; ms < 3; ms += 0.25 {
		eng.AfterFunc(des.FromMillis(ms), "sample", check)
	}
	eng.Run()
	if samples == 0 {
		t.Fatal("no running kernel sampled")
	}
}

// BenchmarkSweep times one rate sweep (Device.recompute) over 4, 8 and 12
// running kernels spread across three contexts of two high- and two
// low-priority streams each, for a pool that fits the device (3×20 SMs) and
// one that over-subscribes it (3×34 SMs, so the waterfill loop, the
// contention penalty and the jitter all run). Each op advances the clock by
// a microsecond, so every kernel is banked as well. Report-only; a sweep
// allocates nothing.
func BenchmarkSweep(b *testing.B) {
	for _, pool := range []struct {
		name string
		sms  int
	}{{"fit", 20}, {"oversubscribed", 34}} {
		for _, n := range []int{4, 8, 12} {
			b.Run(fmt.Sprintf("%s/kernels-%d", pool.name, n), func(b *testing.B) {
				eng, dev := newTestDevice(b, DefaultConfig())
				var streams []*Stream
				for c := 0; c < 3; c++ {
					ctx, err := dev.CreateContext(fmt.Sprint("c", c), pool.sms)
					if err != nil {
						b.Fatal(err)
					}
					streams = append(streams,
						ctx.AddStream("h0", HighPriority), ctx.AddStream("h1", HighPriority),
						ctx.AddStream("l0", LowPriority), ctx.AddStream("l1", LowPriority))
				}
				for i := 0; i < n; i++ {
					k := mixedKernel(fmt.Sprint("k", i))
					for j := range k.Shares {
						k.Shares[j].Work *= 1e9 // runs past any benchmark
					}
					// Kernel i goes to context i%3, so the contexts fill evenly.
					streams[(i%3)*4+(i/3)%4].Submit(k)
				}
				eng.RunUntil(dev.cfg.LaunchOverhead)
				if len(dev.running) != n {
					b.Fatalf("%d kernels running, want %d", len(dev.running), n)
				}
				now := eng.Now()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					now += des.Microsecond
					dev.recompute(now, nil, nil)
				}
			})
		}
	}
}
