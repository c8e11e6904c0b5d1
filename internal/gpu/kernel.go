package gpu

import (
	"fmt"

	"sgprs/internal/des"
	"sgprs/internal/speedup"
)

// Kernel is a unit of GPU execution: a bundle of work (single-SM
// milliseconds, split by speedup class) plus an optional fixed,
// non-scalable time component.
//
// Fixed time models host-side serialisation — synchronous per-op launch gaps
// and partition reconfiguration — which no SM count shrinks. It is consumed
// at wall-clock rate before the scalable work begins.
type Kernel struct {
	// Shares is the scalable work by speedup class, in single-SM ms.
	Shares []speedup.WorkShare
	// FixedMS is non-scalable time in milliseconds.
	FixedMS float64
	// OnBegin fires when the kernel begins executing (after launch
	// overhead), OnDone when it finishes; either may be nil. Both receive
	// the kernel itself, so with Arg a scheduler shares one callback
	// across every kernel instead of allocating a closure per launch.
	// OnDone is the last time the device touches the kernel: the callback
	// may free and reuse it immediately.
	OnBegin func(k *Kernel, now des.Time)
	OnDone  func(k *Kernel, now des.Time)
	// Arg is an opaque scheduler payload carried to the callbacks. Traces
	// and panics name the kernel by it (fmt's %v).
	Arg any

	stream *Stream

	// Execution state, owned by the device.
	remainingFixed float64 // ms
	remainingWork  float64 // single-SM ms
	rate           float64 // single-SM ms retired per wall ms (current gain)
	effSMs         float64
	jitterU        float64 // per-kernel uniform draw for contention jitter
	started        bool
	startedAt      des.Time
	// finAt/finSeq are the kernel's completion key while finSet: the
	// instant and reserved engine sequence number its own finish event
	// would carry. The device's one timer sits at the least key of its
	// running kernels instead of queueing an event per kernel (DESIGN.md
	// §3).
	finAt  des.Time
	finSeq uint64
	finSet bool
	// launchSeq is the device-wide launch sequence number assigned each
	// time the kernel starts executing. Fault-injection events captured
	// against one launch compare it (together with Running) at fire time:
	// kernels recycle through the device free list, so a retained pointer
	// alone cannot tell "still the launch I armed against" from "a later
	// launch reusing the same struct".
	launchSeq uint64
	// pooled marks a kernel sitting in its device's free list; freeing it
	// again before the next NewKernel is a use-after-free bug.
	pooled bool

	// Closed-form aggregate-gain coefficients, computed by initGain when
	// the kernel first starts. The composed gain is a weighted harmonic
	// mean over saturating curves gᵢ(n) = Aᵢ·n/(n+Bᵢ):
	//
	//	gain(n) = W / Σ wᵢ/gᵢ(n) = W / (P + Q/n)
	//
	// with W = Σwᵢ, P = Σ wᵢ/Aᵢ, Q = Σ wᵢ·Bᵢ/Aᵢ — so recompute, which
	// re-evaluates every running kernel's gain on every running-set
	// change, pays two flops per kernel instead of a loop over work
	// classes. The coefficients are pure functions of (Shares, model),
	// both fixed for a kernel's lifetime.
	aggW, aggP, aggQ float64
	aggOK            bool
	// schedRate is the rate the completion key was last derived under;
	// recompute skips the reschedule when the rate is unchanged.
	schedRate float64

	// scaled backs Shares after ScaleShares. It is allocated the first
	// time the struct is scaled and survives recycling (FreeKernel and
	// Reset keep it), so a scaled launch on a recycled kernel allocates
	// nothing, and a kernel that is never scaled — every kernel of a run
	// without work variation — carries only the pointer.
	scaled *[speedup.NumClasses]speedup.WorkShare
}

// initGain computes the closed-form gain coefficients from Shares under
// model m, once per kernel: a kernel resubmitted after Abort keeps the
// coefficients of its first start instead of adding its shares twice. start
// calls it before the rate sweep, so the sweep's per-kernel gain is the
// inlined aggregateGain alone. Submit does not: EncodeState encodes a queued
// kernel by its Shares until it first starts.
func (k *Kernel) initGain(m *speedup.Model) {
	if k.aggOK {
		return
	}
	for _, p := range k.Shares {
		if p.Work < 0 {
			panic(fmt.Sprintf("gpu: kernel %v has negative work", k.Arg))
		}
		if p.Work == 0 {
			continue
		}
		c := m.Curve(p.Class)
		k.aggW += p.Work
		k.aggP += p.Work / c.A
		k.aggQ += p.Work * c.B / c.A
	}
	k.aggOK = true
}

// aggregateGain returns the composed gain at n effective SMs via the closed
// form initGain prepared. It is small enough to inline into recompute's
// sweep (make inline-check pins that): an out-of-line call there spills
// the sweep's live accumulators (DESIGN.md §10).
func (k *Kernel) aggregateGain(n float64) float64 {
	if n <= 0 || k.aggW == 0 {
		return 0
	}
	return k.aggW / (k.aggP + k.aggQ/n)
}

// ScaleShares sets Shares to shares with every class's work multiplied by
// scale — a job's execution-demand scale (rt.Job.WorkScale) — written into a
// buffer the kernel owns, so a launch under work variation allocates at most
// once per kernel struct, not once per launch. Scale 1, or a scale that is
// not positive, shares the slice untouched. shares lists each speedup class
// at most once, as the offline phase builds it.
func (k *Kernel) ScaleShares(shares []speedup.WorkShare, scale float64) {
	if scale == 1 || !(scale > 0) {
		k.Shares = shares
		return
	}
	if k.scaled == nil {
		k.scaled = new([speedup.NumClasses]speedup.WorkShare)
	}
	out := k.scaled[:len(shares)]
	for i, ws := range shares {
		out[i] = speedup.WorkShare{Class: ws.Class, Work: ws.Work * scale}
	}
	k.Shares = out
}

// totalWork sums the scalable work across classes.
func (k *Kernel) totalWork() float64 {
	var w float64
	for _, s := range k.Shares {
		if s.Work < 0 {
			panic(fmt.Sprintf("gpu: kernel %v has negative work", k.Arg))
		}
		w += s.Work
	}
	return w
}

// Running reports whether the kernel is currently executing.
func (k *Kernel) Running() bool { return k.started }

// LaunchSeq reports the device-wide sequence number of the kernel's current
// (or most recent) launch — zero before the first start. See launchSeq.
func (k *Kernel) LaunchSeq() uint64 { return k.launchSeq }

// InflateWork multiplies the kernel's remaining scalable work by factor — the
// WCET-overrun injection point — and returns the extra single-SM milliseconds
// injected. It is only meaningful between Submit and the rate recompute of
// the launch (the gpu.Hook's KernelLaunched callback sits exactly there);
// factors at or below 1 are ignored so a disabled overrun model is a no-op.
func (k *Kernel) InflateWork(factor float64) float64 {
	if factor <= 1 {
		return 0
	}
	extra := float64(k.remainingWork * (factor - 1))
	k.remainingWork += extra
	return extra
}

// StartedAt reports when execution began (zero until started).
func (k *Kernel) StartedAt() des.Time { return k.startedAt }

// IsolatedLatencyMS predicts the kernel's latency if it ran alone in a
// context of n SMs on a device using model m, with no contention. This is
// what the offline profiler measures and what WCET estimates derive from.
func (k *Kernel) IsolatedLatencyMS(m *speedup.Model, n float64) float64 {
	work := k.totalWork()
	if work == 0 {
		return k.FixedMS
	}
	g := m.Aggregate(k.Shares, n)
	if g <= 0 {
		return 0
	}
	return k.FixedMS + work/g
}

// Stream is an in-order kernel queue within a context, with a fixed priority,
// mirroring a CUDA stream. Kernels on one stream serialise; kernels on
// different streams of one context run concurrently and share its SMs.
//
// The FIFO is a head-indexed slice rather than a reslice-on-pop queue: the
// backing array is reclaimed every time the queue drains (pump), and a
// queue that never drains is compacted when it fills (Submit), so
// steady-state submit/pump churn allocates nothing (a reslice-forward queue
// leaks its capacity and pays one allocation per kernel).
type Stream struct {
	ctx      *Context
	id       int
	name     string
	priority Priority

	queue   []*Kernel
	head    int
	running *Kernel
}

// Context returns the owning context.
func (s *Stream) Context() *Context { return s.ctx }

// Priority reports the stream's priority.
func (s *Stream) Priority() Priority { return s.priority }

// Name reports the diagnostic name.
func (s *Stream) Name() string { return s.name }

// QueueLen reports the number of kernels waiting (excluding a running one).
func (s *Stream) QueueLen() int { return len(s.queue) - s.head }

// Busy reports whether the stream has running or queued work.
func (s *Stream) Busy() bool { return s.running != nil || s.QueueLen() > 0 }

// Running returns the currently executing kernel, or nil.
func (s *Stream) Running() *Kernel { return s.running }

// String renders "ctx0/s1(high)".
func (s *Stream) String() string {
	return fmt.Sprintf("%s/s%d(%s)", s.ctx.name, s.id, s.priority)
}

// Submit enqueues k on the stream. If the stream is idle the kernel starts
// after the device's launch overhead. Submitting a kernel twice or to a
// foreign device is a programming error and panics.
func (s *Stream) Submit(k *Kernel) {
	if k.stream != nil {
		panic(fmt.Sprintf("gpu: kernel %v submitted twice", k.Arg))
	}
	work := k.totalWork()
	if work == 0 && k.FixedMS <= 0 {
		panic(fmt.Sprintf("gpu: kernel %v has no work", k.Arg))
	}
	k.stream = s
	k.remainingFixed = k.FixedMS
	k.remainingWork = work
	// A queue that never drains never rewinds: when it fills its backing
	// array with at least half of it popped, the live tail moves to the
	// front instead of the array growing (the des monotone lane's rule).
	if n := len(s.queue); n == cap(s.queue) && s.head > 0 && 2*s.head >= n {
		live := copy(s.queue, s.queue[s.head:])
		clear(s.queue[s.head:])
		s.queue = s.queue[:live]
		s.head = 0
	}
	s.queue = append(s.queue, k)
	s.ctx.device.pump(s)
}

// Stream returns the stream the kernel was submitted to (nil before Submit).
func (k *Kernel) Stream() *Stream { return k.stream }

// Flush detaches every queued (not yet dispatched) kernel from the stream in
// submission order, handing each to fn with its stream pointer already
// cleared — the caller owns it again and may free it. The running or
// launch-window kernel, if any, is untouched: evict it with Device.Abort or
// Device.CancelLaunch. This is the device-loss drain path.
func (s *Stream) Flush(fn func(*Kernel)) {
	for i := s.head; i < len(s.queue); i++ {
		k := s.queue[i]
		s.queue[i] = nil
		k.stream = nil
		fn(k)
	}
	s.queue = s.queue[:0]
	s.head = 0
}
