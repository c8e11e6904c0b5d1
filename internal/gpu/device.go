// Package gpu is a discrete-event model of a spatially partitioned NVIDIA
// GPU: a pool of streaming multiprocessors (SMs) carved into CUDA-like
// contexts, each exposing priority streams that execute kernels.
//
// This is the substitute for the paper's RTX 2080 Ti + CUDA MPS substrate
// (see DESIGN.md §2). The model reproduces the timing phenomena the
// schedulers react to:
//
//   - sub-linear per-kernel speedup in the SM count (package speedup);
//   - spatial sharing: concurrent kernels within a context split its SMs,
//     weighted by stream priority;
//   - over-subscription: when the summed SM demand of busy contexts exceeds
//     the device, every kernel's effective share shrinks proportionally, a
//     deterministic contention penalty grows with the over-subscription
//     ratio, and a seeded per-kernel jitter widens execution-time variance
//     (the paper's "poor predictability");
//   - a device-wide aggregate throughput ceiling (DRAM bandwidth bound), so
//     carving more partitions cannot multiply total throughput without bound;
//   - per-kernel launch overhead and non-scalable fixed time (synchronous
//     launch and reconfiguration costs are modelled as fixed milliseconds
//     that no amount of SMs shrinks).
//
// Execution is processor sharing: whenever the set of running kernels
// changes, every kernel's progress is banked and its completion instant is
// recomputed from the new rates. Completion instants are plain kernel
// fields, not engine events: the device keeps one completion timer on the
// engine, armed at the earliest of them. All randomness is drawn from
// seeded streams, so runs are exactly reproducible.
package gpu

import (
	"fmt"

	"sgprs/internal/des"
	"sgprs/internal/speedup"
	"sgprs/internal/stats"
)

// Config holds the device parameters. The zero Config is invalid; start from
// DefaultConfig.
type Config struct {
	// TotalSMs is the number of streaming multiprocessors on the device.
	TotalSMs int
	// AggregateGainCap is the device-wide ceiling on the sum of concurrent
	// kernels' speedup gains — the DRAM-bandwidth bound. When concurrent
	// kernels' combined gain exceeds it, all rates scale down
	// proportionally.
	AggregateGainCap float64
	// LaunchOverhead is the host-side latency between a kernel reaching
	// the head of its stream and starting to execute.
	LaunchOverhead des.Time
	// ContentionPenalty is the deterministic slowdown coefficient applied
	// under over-subscription: every running kernel's gain is divided by
	// 1 + ContentionPenalty·(ratio−1)² where ratio = demanded/total SMs.
	// The quadratic keeps mild over-subscription nearly free while making
	// heavy over-subscription (Scenario 2 at 2.0x) genuinely costly.
	ContentionPenalty float64
	// ContentionJitter scales the seeded per-kernel slowdown spread under
	// over-subscription: each kernel draws u ∈ [0,1) at start and its gain
	// is further divided by 1 + ContentionJitter·(ratio−1)·u.
	ContentionJitter float64
	// Seed feeds every stochastic draw in the device.
	Seed uint64
}

// DefaultConfig returns the calibrated RTX 2080 Ti model parameters.
func DefaultConfig() Config {
	return Config{
		TotalSMs: speedup.DeviceSMs,
		// ≈ the full-device composed ResNet18 gain: a saturated device
		// retires ~1/1.4ms inferences per second in aggregate no
		// matter how it is partitioned (DESIGN.md §4).
		AggregateGainCap:  23.3,
		LaunchOverhead:    des.FromMicros(8),
		ContentionPenalty: 0.008,
		ContentionJitter:  0.03,
		Seed:              1,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.TotalSMs <= 0 {
		return fmt.Errorf("gpu: TotalSMs %d must be positive", c.TotalSMs)
	}
	if c.AggregateGainCap <= 0 {
		return fmt.Errorf("gpu: AggregateGainCap %v must be positive", c.AggregateGainCap)
	}
	if c.LaunchOverhead < 0 {
		return fmt.Errorf("gpu: LaunchOverhead %v must be non-negative", c.LaunchOverhead)
	}
	if c.ContentionPenalty < 0 || c.ContentionJitter < 0 {
		return fmt.Errorf("gpu: contention coefficients must be non-negative")
	}
	return nil
}

// Device is the simulated GPU. It is driven by a des.Engine and is not safe
// for concurrent use (the engine is single-threaded by design).
type Device struct {
	eng      *des.Engine
	model    *speedup.Model
	cfg      Config
	rng      *des.RNG
	contexts []*Context

	// running holds the executing kernels in admission order. It is a
	// slice, not a set, so every accumulation over it (work banked,
	// weight sums, gain sums) visits kernels in a deterministic order:
	// floating-point results are then bit-identical across processes,
	// threads, and map-layout changes — a property the parallel
	// experiment runner relies on (DESIGN.md §6).
	running    []*Kernel
	lastUpdate des.Time
	observer   Observer
	hook       Hook

	// timer is the device's one completion event, a keyed engine event
	// held at the least (finAt, finSeq) key among the running kernels, so
	// the engine orders it exactly as it would have ordered that kernel's
	// own finish event (DESIGN.md §3); next is that kernel, the one the
	// timer completes when it fires. The timer lives in the device — no
	// allocation of its own — and survives engine and device resets.
	timer des.Event
	next  *Kernel

	// effSMs is the device capacity every dynamic-rate computation divides
	// by — DemandRatio, the over-subscription ratio, and the waterfill
	// budget. It equals cfg.TotalSMs except inside an SM-degradation
	// window (fault injection), when SetEffectiveSMs lowers it. Static
	// quantities — context creation bounds, Utilization's denominator,
	// fingerprint encoding — stay on the nominal cfg.TotalSMs: degraded
	// runs are ineligible for fast-forward, and utilisation against
	// nominal capacity is what a fleet operator reads.
	effSMs int

	// kernelSeq numbers kernel launches device-wide; start stamps it onto
	// the launching kernel (Kernel.LaunchSeq).
	kernelSeq uint64

	// Per-context scratch buffers reused across recompute/waterfill calls
	// (indexed by context ID). recompute runs on every running-set change
	// — twice per kernel — so allocating these per call dominated the
	// simulator's allocation profile.
	allocScratch  []float64
	cappedScratch []bool

	// busyDemand is the summed SM allocation of busy contexts, maintained
	// by start/complete alongside the per-context aggregates (DESIGN.md
	// §10); recomputes counts rate sweeps and visits the kernels those
	// sweeps visited (RecomputeStats).
	busyDemand int
	recomputes uint64
	visits     uint64

	// Accounting.
	completedKernels uint64
	busySMTime       float64 // ∫ (effective SMs in use) dt, in SM·seconds
	workDone         float64 // single-SM milliseconds retired

	// Fast-forward measurement-cycle recording (ff.go): while recording,
	// the rate sweep appends each banked operand pair so ReplayCycles can
	// reproduce the identical add sequence over extrapolated cycles;
	// replayCounts tallies its work (ReplayStats).
	recording    bool
	recWork      []float64
	recBusy      []float64
	recCompleted uint64
	replayCounts stats.RepeatCounts

	// kernels is every kernel NewKernel ever allocated and freeKernels
	// the ones available for reuse. The device owns them all: schedulers
	// borrow with NewKernel and return with FreeKernel, and Reset reclaims
	// the ones a run left behind (still running, queued, or cancelled in
	// their launch window).
	kernels     []*Kernel
	freeKernels []*Kernel
}

// deviceRNG derives the device's stochastic stream from its seed; NewDevice
// and Reset must agree on it for a reset device to replay a fresh one.
func deviceRNG(seed uint64) *des.RNG { return des.NewRNG(seed).Fork(0xDE71CE) }

// NewDevice builds a device on the given engine with the given speedup model.
func NewDevice(eng *des.Engine, model *speedup.Model, cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if eng == nil || model == nil {
		return nil, fmt.Errorf("gpu: nil engine or model")
	}
	d := &Device{
		eng:    eng,
		model:  model,
		cfg:    cfg,
		rng:    deviceRNG(cfg.Seed),
		effSMs: cfg.TotalSMs,
	}
	d.timer.InitKeyed("gpu.finish", timerFire, d)
	return d, nil
}

// Reset returns the device to its just-constructed state under a (possibly
// different) configuration, retaining its allocations — the scratch buffers
// and slice capacities survive, so a reused device recomputes without
// growing. Contexts are discarded (schedulers recreate their pool on
// Attach), the stochastic stream is re-derived from the new seed, and all
// accounting restarts; a run on a reset device is bit-identical to one on a
// fresh device. Every kernel NewKernel handed out is zeroed and returned to
// the free list, whatever state the previous run left it in. The caller must
// Reset the driving engine first: the launch events of the kernels it
// reclaims live in the engine's queue, and the engine reset is what drops
// them. The completion timer is parked, and the next run's first kernel
// start re-arms it.
func (d *Device) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	d.cfg = cfg
	d.rng = deviceRNG(cfg.Seed)
	d.contexts = d.contexts[:0]
	d.running = d.running[:0]
	d.lastUpdate = 0
	d.observer = nil
	d.hook = nil
	d.eng.Cancel(&d.timer)
	d.next = nil
	d.effSMs = cfg.TotalSMs
	d.kernelSeq = 0
	d.busyDemand = 0
	d.recomputes = 0
	d.visits = 0
	d.completedKernels = 0
	d.busySMTime = 0
	d.workDone = 0
	d.recording = false
	d.recWork = d.recWork[:0]
	d.recBusy = d.recBusy[:0]
	d.recCompleted = 0
	d.replayCounts = stats.RepeatCounts{}
	d.freeKernels = d.freeKernels[:0]
	for _, k := range d.kernels {
		*k = Kernel{pooled: true}
		d.freeKernels = append(d.freeKernels, k)
	}
	return nil
}

// NewKernel returns a zeroed kernel from the device's free list, allocating
// one only when the list is empty. The caller fills it, submits it, and hands
// it back with FreeKernel once the device no longer holds it (in OnDone, or
// after Abort or Stream.Flush); a kernel it never hands back is reclaimed by
// the next Reset.
func (d *Device) NewKernel() *Kernel {
	if n := len(d.freeKernels); n > 0 {
		k := d.freeKernels[n-1]
		d.freeKernels = d.freeKernels[:n-1]
		k.pooled = false
		return k
	}
	k := &Kernel{}
	d.kernels = append(d.kernels, k)
	return k
}

// FreeKernel zeroes k and returns it to the free list. Freeing a kernel that
// is still running, or freeing one twice, is a programming error and panics.
func (d *Device) FreeKernel(k *Kernel) {
	if k.pooled {
		panic(fmt.Sprintf("gpu: kernel %q freed twice", k.Label))
	}
	if k.started {
		panic(fmt.Sprintf("gpu: free of running kernel %q", k.Label))
	}
	*k = Kernel{pooled: true}
	d.freeKernels = append(d.freeKernels, k)
}

// Observer receives kernel lifecycle callbacks, e.g. for execution tracing.
// Callbacks run synchronously on the simulation goroutine; observers must not
// mutate device state.
type Observer interface {
	// KernelStarted fires when a kernel begins executing on its stream.
	KernelStarted(k *Kernel, now des.Time)
	// KernelFinished fires when a kernel completes.
	KernelFinished(k *Kernel, now des.Time)
}

// SetObserver installs the lifecycle observer (nil to remove).
func (d *Device) SetObserver(o Observer) { d.observer = o }

// Hook intercepts kernel lifecycle transitions for fault injection. Unlike
// Observer it runs at precisely placed points and is allowed to mutate the
// kernel it receives:
//
//   - KernelLaunched fires after the launch's admission bookkeeping but
//     before the device recomputes rates, so work inflated there
//     (Kernel.InflateWork) flows into the very first rate assignment,
//     the waterfill, and the aggregate ceiling;
//   - KernelRetired fires after a completion's bookkeeping and recompute,
//     before OnDone (which may free and reuse the kernel).
//
// A Hook is deliberately a separate interface from Observer: HasObserver
// gates diagnostic label formatting, and installing a fault hook must not
// flip that gate.
type Hook interface {
	KernelLaunched(k *Kernel, now des.Time)
	KernelRetired(k *Kernel, now des.Time)
}

// SetHook installs the fault-injection hook (nil to remove).
func (d *Device) SetHook(h Hook) { d.hook = h }

// HasObserver reports whether a lifecycle observer is installed. Schedulers
// use it to skip building per-kernel label strings nobody will read — label
// formatting is pure diagnostics, so eliding it never changes results.
func (d *Device) HasObserver() bool { return d.observer != nil }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Model returns the speedup model the device executes against.
func (d *Device) Model() *speedup.Model { return d.model }

// Engine returns the simulation engine driving the device.
func (d *Device) Engine() *des.Engine { return d.eng }

// Contexts lists the created contexts in creation order.
func (d *Device) Contexts() []*Context { return d.contexts }

// CompletedKernels reports how many kernels have finished.
func (d *Device) CompletedKernels() uint64 { return d.completedKernels }

// BusySMSeconds reports the integral of in-use effective SMs over time.
func (d *Device) BusySMSeconds() float64 { return d.busySMTime }

// Utilization reports mean device utilisation in [0,1] over the elapsed
// simulated time (effective busy SM-time over total SM-time).
func (d *Device) Utilization() float64 {
	elapsed := d.eng.Now().Seconds()
	if elapsed <= 0 {
		return 0
	}
	return d.busySMTime / (elapsed * float64(d.cfg.TotalSMs))
}

// CreateContext carves a context with the given SM allocation. Allocations
// may over-subscribe the device in total (that is the point of the paper's
// context pool), but a single context can never exceed the device.
func (d *Device) CreateContext(name string, sms int) (*Context, error) {
	if sms <= 0 {
		return nil, fmt.Errorf("gpu: context %q SM count %d must be positive", name, sms)
	}
	if sms > d.cfg.TotalSMs {
		return nil, fmt.Errorf("gpu: context %q wants %d SMs, device has %d", name, sms, d.cfg.TotalSMs)
	}
	ctx := &Context{
		device: d,
		id:     len(d.contexts),
		name:   name,
		sms:    sms,
	}
	d.contexts = append(d.contexts, ctx)
	return ctx, nil
}

// DemandRatio reports the current total SM demand of busy contexts divided by
// the device's SM count. Values above 1 mean the device is over-subscribed at
// this instant.
func (d *Device) DemandRatio() float64 {
	return float64(d.busyDemand) / float64(d.effSMs)
}

// EffectiveSMs reports the capacity dynamic-rate computations currently
// divide by — cfg.TotalSMs outside SM-degradation windows.
func (d *Device) EffectiveSMs() int { return d.effSMs }

// SetEffectiveSMs changes the device's effective capacity at time now — the
// SM-degradation injection point. Every running kernel's progress is banked
// at the old rates, then a full recompute re-derives shares, contention, and
// the waterfill against the new capacity, so both schedulers immediately see
// the shrunk (or restored) device. n must be in [1, cfg.TotalSMs]: the model
// degrades the configured device, it never grows it.
func (d *Device) SetEffectiveSMs(n int, now des.Time) error {
	if n < 1 || n > d.cfg.TotalSMs {
		return fmt.Errorf("gpu: effective SMs %d outside [1, %d]", n, d.cfg.TotalSMs)
	}
	if n == d.effSMs {
		return nil
	}
	d.effSMs = n
	d.recompute(now, nil, nil)
	return nil
}

// RecomputeStats reports how many rate sweeps the device has run — one per
// running-set transition and capacity change — and how many running kernels
// they visited in total. Every visit evaluates the kernel's gain, so visits
// is also the gain-evaluation count (DESIGN.md §10).
func (d *Device) RecomputeStats() (sweeps, visits uint64) { return d.recomputes, d.visits }
