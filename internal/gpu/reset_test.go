package gpu

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"sgprs/internal/des"
	"sgprs/internal/slab"
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
		record := func(_ *Kernel, now des.Time) { times = append(times, now) }
		for i := 0; i < 3; i++ {
			k1 := convKernel("a", 5)
			k1.OnDone = record
			s1.Submit(k1)
			k2 := convKernel("b", 7)
			k2.OnDone = record
			s2.Submit(k2)
		}
		eng.Run()
		return times, dev.Utilization()
	}

	freshEng, freshDev := newTestDevice(t, cfg)
	wantTimes, wantUtil := workload(freshEng, freshDev)

	eng, dev := newTestDevice(t, cfg)
	if _, _ = workload(eng, dev); dev.completedKernels == 0 {
		t.Fatal("dirtying run completed nothing")
	}
	eng.Reset()
	if err := dev.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if len(dev.Contexts()) != 0 || dev.completedKernels != 0 || dev.busySMTime != 0 {
		t.Fatalf("reset device kept state: %d contexts, %d kernels, %v busy",
			len(dev.Contexts()), dev.completedKernels, dev.busySMTime)
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
		k.Arg = label
		k.Shares = []speedup.WorkShare{{Class: speedup.Conv, Work: 50}}
		k.OnDone = func(*Kernel, des.Time) {}
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
		k.Arg = "k"
		dev.FreeKernel(k)
	}); n != 0 {
		t.Errorf("NewKernel/FreeKernel cycle allocates %v times, want 0", n)
	}
}

// hookLog is a Hook appending "<name>+<arg>" at launch and "<name>-<arg>"
// at retirement to a shared log.
type hookLog struct {
	name string
	log  *[]string
}

func (h hookLog) KernelLaunched(k *Kernel, _ des.Time) {
	*h.log = append(*h.log, fmt.Sprintf("%s+%v", h.name, k.Arg))
}

func (h hookLog) KernelRetired(k *Kernel, _ des.Time) {
	*h.log = append(*h.log, fmt.Sprintf("%s-%v", h.name, k.Arg))
}

// TestHooksRunInOrderAndResetDropsThem: hooks run in installation order at
// launch and retirement, installing two allocates nothing, and Reset
// forgets them — the list and its backing array alike.
func TestHooksRunInOrderAndResetDropsThem(t *testing.T) {
	eng, dev := newTestDevice(t, quietConfig())
	var log []string
	a, b := Hook(hookLog{"a", &log}), Hook(hookLog{"b", &log})
	if n := testing.AllocsPerRun(100, func() {
		if err := dev.Reset(quietConfig()); err != nil {
			t.Fatal(err)
		}
		dev.AddHook(a)
		dev.AddHook(b)
	}); n != 0 {
		t.Errorf("Reset and two AddHooks allocate %v times, want 0", n)
	}
	ctx, err := dev.CreateContext("c0", 34)
	if err != nil {
		t.Fatal(err)
	}
	ctx.AddStream("s0", LowPriority).Submit(convKernel("k", 5))
	eng.Run()
	if got, want := strings.Join(log, " "), "a+k b+k a-k b-k"; got != want {
		t.Errorf("hook calls = %q, want %q", got, want)
	}
	if err := dev.Reset(quietConfig()); err != nil {
		t.Fatal(err)
	}
	if len(dev.hooks) != 0 || dev.hookBuf != [2]Hook{} {
		t.Errorf("after Reset: hooks %v, backing array %v; want both empty", dev.hooks, dev.hookBuf)
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

// TestResetDeviceRearmsTimerWithoutAllocating: the completion timer lives in
// the device. A reset taken mid-flight (engine first, then device) unqueues
// it without handing it to the engine's pool — every other pending event
// goes there — and the next run re-arms it in place: no per-run timer
// allocation, and no allocation at all across steady start/complete cycles.
func TestResetDeviceRearmsTimerWithoutAllocating(t *testing.T) {
	cfg := DefaultConfig()
	eng, dev := newTestDevice(t, cfg)
	stream := func() *Stream {
		ctx, err := dev.CreateContext("c0", 34)
		if err != nil {
			t.Fatal(err)
		}
		return ctx.AddStream("s0", HighPriority)
	}
	s := stream()
	s.Submit(convKernel("a", 5))
	s.Submit(convKernel("b", 5))
	eng.RunUntil(100 * des.Microsecond) // a is running, its timer queued
	free, pending := eng.FreeEvents(), eng.Pending()
	eng.Reset()
	if err := dev.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	// Every pending event but the timer enters the pool: one short if the
	// timer was not queued mid-flight, one over if Reset pooled it.
	if got, want := eng.FreeEvents(), free+pending-1; got != want {
		t.Fatalf("engine free list %d events after reset, want %d (all pending events but the timer)", got, want)
	}

	s = stream()
	shares := []speedup.WorkShare{{Class: speedup.Conv, Work: 3}}
	cycle := func() {
		k := dev.NewKernel()
		k.Arg, k.Shares = "k", shares
		s.Submit(k)
		eng.Run()
		dev.FreeKernel(k)
	}
	cycle()
	if dev.completedKernels != 1 {
		t.Fatalf("completed %d kernels after reset, want 1", dev.completedKernels)
	}
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Errorf("start/complete cycle allocates %v times, want 0", n)
	}
}

// TestKernelsGrowInSlabs: driving a device to a peak of P live kernels takes
// O(log P) allocations and reserves at most about 1.25·P + one minimum
// chunk of kernels, plus the allocator's size-class rounding. The free list
// counts only freed and reclaimed kernels: none before Reset, all P after.
func TestKernelsGrowInSlabs(t *testing.T) {
	cfg := quietConfig()
	eng, dev := newTestDevice(t, cfg)
	const peak = 5000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range peak {
		dev.NewKernel()
	}
	runtime.ReadMemStats(&after)
	mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	if limit := uint64(4 * math.Log2(peak)); mallocs > limit {
		t.Errorf("growing to %d kernels took %d allocations, want ≤ %d (O(log P))", peak, mallocs, limit)
	}
	reserve := uint64((peak + peak/4 + slab.MinChunk) * unsafe.Sizeof(Kernel{}))
	if limit := reserve + reserve/8; bytes > limit {
		t.Errorf("growing to %d kernels took %d bytes, want ≤ %d (1.25·P + MinChunk kernels, +1/8)", peak, bytes, limit)
	}
	if n := len(dev.freeKernels); n != 0 {
		t.Errorf("free list holds %d kernels before any free, want 0", n)
	}
	eng.Reset()
	if err := dev.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if n := len(dev.freeKernels); n != peak {
		t.Errorf("free list holds %d kernels after Reset, want all %d", n, peak)
	}
}

// TestResetKeepsContextsAndStreams: a reset device hands its previous
// context and stream structs back to CreateContext and AddStream, fully
// reinitialised, so recreating a pool of the same shape allocates nothing;
// a larger pool allocates only the structs it adds.
func TestResetKeepsContextsAndStreams(t *testing.T) {
	cfg := quietConfig()
	eng, dev := newTestDevice(t, cfg)
	pool := func(n int) {
		for i := range n {
			ctx, err := dev.CreateContext("c", 20+i)
			if err != nil {
				t.Fatal(err)
			}
			ctx.AddStream("hi", HighPriority)
			ctx.AddStream("lo", LowPriority)
		}
	}
	pool(2)
	old := dev.Contexts()[1]
	k := dev.NewKernel()
	k.Shares = []speedup.WorkShare{{Class: speedup.Conv, Work: 50}}
	old.Streams()[1].Submit(k)
	k2 := dev.NewKernel()
	k2.Shares = k.Shares
	old.Streams()[1].Submit(k2) // queued behind k
	reset := func() {
		eng.Reset()
		if err := dev.Reset(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(5, func() { reset(); pool(2) }); n != 0 {
		t.Errorf("recreating a 2-context pool on a reset device allocates %v times, want 0", n)
	}
	if dev.Contexts()[1] != old {
		t.Fatal("reset device did not reuse its context struct")
	}
	_, fresh := newTestDevice(t, cfg)
	ctx, _ := fresh.CreateContext("c", 21)
	ctx.AddStream("hi", HighPriority)
	want := ctx.AddStream("lo", LowPriority)
	got := old.Streams()[1]
	if got.QueueLen() != 0 || got.Busy() || got.ctx != old || got.id != want.id ||
		got.name != want.name || got.priority != want.priority || cap(got.queue) == 0 {
		t.Errorf("reused stream not reinitialised: %+v", *got)
	}
	reset()
	pool(3)
	if n := len(dev.Contexts()); n != 3 || dev.Contexts()[2].ID() != 2 || len(dev.Contexts()[2].Streams()) != 2 {
		t.Fatalf("3-context pool after a 2-context one: %d contexts", n)
	}
}

// TestScaleSharesAllocsNothing: a scaled kernel's shares are the same
// multiply written into the kernel's own buffer, which survives recycling,
// so scaling a recycled kernel allocates nothing; scale 1 shares the slice.
func TestScaleSharesAllocsNothing(t *testing.T) {
	_, dev := newTestDevice(t, quietConfig())
	base := []speedup.WorkShare{{Class: speedup.Conv, Work: 3.7}, {Class: speedup.ReLU, Work: 0.21}}
	k := dev.NewKernel()
	k.ScaleShares(base, 1.1)
	dev.FreeKernel(k)
	if n := testing.AllocsPerRun(10, func() {
		k = dev.NewKernel()
		k.ScaleShares(base, 1.3)
		dev.FreeKernel(k)
	}); n != 0 {
		t.Errorf("scaling a recycled kernel allocates %v times, want 0", n)
	}
	k = dev.NewKernel()
	k.ScaleShares(base, 1.3)
	for i, ws := range base {
		if want := (speedup.WorkShare{Class: ws.Class, Work: ws.Work * 1.3}); k.Shares[i] != want {
			t.Errorf("share %d = %+v, want %+v", i, k.Shares[i], want)
		}
	}
	if len(k.Shares) != len(base) || &k.Shares[0] == &base[0] {
		t.Fatal("scaled shares alias the base slice")
	}
	k.ScaleShares(base, 1)
	if &k.Shares[0] != &base[0] {
		t.Error("scale 1 copied the shares")
	}
}
