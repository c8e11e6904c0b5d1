package gpu

import (
	"reflect"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/speedup"
)

// TestDeviceResetReplaysFreshDevice: a contended, jittered workload run on a
// reset engine+device must complete at bit-identical instants to the same
// workload on fresh ones, and the accounting must restart from zero.
func TestDeviceResetReplaysFreshDevice(t *testing.T) {
	cfg := DefaultConfig() // stochastic terms on: exercises the rng re-fork
	workload := func(eng *des.Engine, dev *Device) (times []des.Time, util float64) {
		ctx1, err := dev.CreateContext("c0", 40)
		if err != nil {
			t.Fatal(err)
		}
		ctx2, err := dev.CreateContext("c1", 40)
		if err != nil {
			t.Fatal(err)
		}
		s1 := ctx1.AddStream("s0", HighPriority)
		s2 := ctx2.AddStream("s0", LowPriority)
		record := func(now des.Time) { times = append(times, now) }
		for i := 0; i < 3; i++ {
			k1 := convKernel("a", 5)
			k1.OnComplete = record
			s1.Submit(k1)
			k2 := convKernel("b", 7)
			k2.OnComplete = record
			s2.Submit(k2)
		}
		eng.Run()
		return times, dev.Utilization()
	}

	freshEng, freshDev := newTestDevice(t, cfg)
	wantTimes, wantUtil := workload(freshEng, freshDev)

	eng, dev := newTestDevice(t, cfg)
	if _, _ = workload(eng, dev); dev.CompletedKernels() == 0 {
		t.Fatal("dirtying run completed nothing")
	}
	eng.Reset()
	if err := dev.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if len(dev.Contexts()) != 0 || dev.CompletedKernels() != 0 || dev.BusySMSeconds() != 0 {
		t.Fatalf("reset device kept state: %d contexts, %d kernels, %v busy",
			len(dev.Contexts()), dev.CompletedKernels(), dev.BusySMSeconds())
	}
	gotTimes, gotUtil := workload(eng, dev)

	if len(gotTimes) != len(wantTimes) {
		t.Fatalf("completed %d kernels, want %d", len(gotTimes), len(wantTimes))
	}
	for i := range wantTimes {
		if gotTimes[i] != wantTimes[i] {
			t.Errorf("completion %d at %v, want %v (reset run diverged)", i, gotTimes[i], wantTimes[i])
		}
	}
	if gotUtil != wantUtil {
		t.Errorf("utilization %v, want %v", gotUtil, wantUtil)
	}
}

// TestDeviceResetRejectsBadConfig: Reset validates like NewDevice.
func TestDeviceResetRejectsBadConfig(t *testing.T) {
	_, dev := newTestDevice(t, quietConfig())
	bad := quietConfig()
	bad.TotalSMs = 0
	if err := dev.Reset(bad); err == nil {
		t.Error("invalid config accepted by Reset")
	}
}

// TestDeviceResetReclaimsKernels: Reset hands back, zeroed, every kernel a
// run left behind — one still running, one queued behind it, and one
// cancelled in its launch window — together with the ones already freed.
func TestDeviceResetReclaimsKernels(t *testing.T) {
	cfg := quietConfig()
	eng, dev := newTestDevice(t, cfg)
	ctx, err := dev.CreateContext("c0", 34)
	if err != nil {
		t.Fatal(err)
	}
	s1 := ctx.AddStream("s0", HighPriority)
	s2 := ctx.AddStream("s1", LowPriority)
	fill := func(label string) *Kernel {
		k := dev.NewKernel()
		k.Label = label
		k.Shares = []speedup.WorkShare{{Class: speedup.Conv, Work: 50}}
		k.OnComplete = func(des.Time) {}
		return k
	}

	freed := fill("freed")
	dev.FreeKernel(freed)
	running, queued := fill("running"), fill("queued")
	s1.Submit(running)
	s1.Submit(queued)
	eng.RunUntil(des.FromMillis(1))
	if !running.Running() || queued.Stream() != s1 {
		t.Fatal("setup: want one kernel running and one queued behind it")
	}
	cancelled := fill("cancelled")
	s2.Submit(cancelled)
	dev.CancelLaunch(cancelled)

	eng.Reset()
	if err := dev.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	want := map[*Kernel]string{freed: "freed", running: "running", queued: "queued", cancelled: "cancelled"}
	for i, n := 0, len(want); i < n; i++ {
		k := dev.NewKernel()
		name, ok := want[k]
		if !ok {
			t.Fatalf("NewKernel %d allocated instead of reusing a reclaimed kernel", i)
		}
		if !reflect.DeepEqual(*k, Kernel{}) {
			t.Errorf("reclaimed %s kernel not zeroed: %+v", name, *k)
		}
		delete(want, k)
	}
}

// TestKernelFreeListAllocsNothing: once warm, a NewKernel/FreeKernel cycle
// allocates nothing.
func TestKernelFreeListAllocsNothing(t *testing.T) {
	_, dev := newTestDevice(t, quietConfig())
	if n := testing.AllocsPerRun(100, func() {
		k := dev.NewKernel()
		k.Label = "k"
		dev.FreeKernel(k)
	}); n != 0 {
		t.Errorf("NewKernel/FreeKernel cycle allocates %v times, want 0", n)
	}
}

// TestFreeKernelTwicePanics: freeing a kernel twice before the next
// NewKernel is the use-after-free the free list must surface.
func TestFreeKernelTwicePanics(t *testing.T) {
	_, dev := newTestDevice(t, quietConfig())
	k := dev.NewKernel()
	dev.FreeKernel(k)
	defer func() {
		if recover() == nil {
			t.Fatal("second FreeKernel did not panic")
		}
	}()
	dev.FreeKernel(k)
}
