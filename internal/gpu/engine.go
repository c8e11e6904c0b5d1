package gpu

import (
	"fmt"

	"sgprs/internal/des"
)

// workEpsilon absorbs floating-point residue when deciding that a kernel's
// remaining work has hit zero.
const workEpsilon = 1e-9

// kernelStart and timerFire are the shared event callbacks for kernel launch
// and completion. Using arg-style events with package-level functions avoids
// a closure allocation per kernel on both paths.
func kernelStart(now des.Time, arg any) {
	k := arg.(*Kernel)
	// A nil stream means the launch was cancelled while the kernel sat in
	// its launch-overhead window (Device.CancelLaunch): the detached event
	// still fires, but the kernel no longer belongs to any device.
	if k.stream == nil {
		return
	}
	k.stream.ctx.device.start(k, now)
}

// timerFire completes the kernel the device's timer was armed for: the one
// holding the least completion key, which is exactly the kernel whose own
// finish event the engine would have fired here.
func timerFire(now des.Time, arg any) {
	d := arg.(*Device)
	d.complete(d.next, now)
}

// pump starts the next queued kernel on s if the stream is idle. The kernel
// begins executing after the device's launch overhead. Popping advances the
// queue's head index and rewinds the slice once drained, keeping the backing
// array for the next burst (Submit compacts a queue that never drains).
func (d *Device) pump(s *Stream) {
	if s.running != nil || s.head == len(s.queue) {
		return
	}
	k := s.queue[s.head]
	s.queue[s.head] = nil
	s.head++
	if s.head == len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
	}
	s.running = k
	d.eng.AfterArgMonotone(d.cfg.LaunchOverhead, "gpu.launch", kernelStart, k)
}

// start admits k into the running set, updates the incrementally maintained
// per-context aggregates, and recomputes rates. The lifecycle callbacks and
// the fault hook run before the sweep banks the other kernels' progress:
// none of them reads another kernel's remainders or the device's accounting
// totals (DESIGN.md §10).
func (d *Device) start(k *Kernel, now des.Time) {
	k.started = true
	k.startedAt = now
	d.kernelSeq++
	k.launchSeq = d.kernelSeq
	k.jitterU = d.rng.Float64()
	ctx := k.stream.ctx
	if ctx.activeKernels == 0 {
		d.busyDemand += ctx.sms
	}
	ctx.activeKernels++
	ctx.weightSum += k.stream.priority.weight()
	d.running = append(d.running, k)
	if d.observer != nil {
		d.observer.KernelStarted(k, now)
	}
	if k.OnStart != nil {
		k.OnStart(now)
	}
	if k.OnBegin != nil {
		k.OnBegin(k, now)
	}
	// The fault hook runs last before rates are derived: work it inflates
	// (WCET overruns) flows into this launch's very first rate assignment.
	if d.hook != nil {
		d.hook.KernelLaunched(k, now)
	}
	k.initGain(d.model)
	d.recompute(now, k, nil)
}

// recompute is the device's one rate sweep, run on every running-set
// transition and capacity change (DESIGN.md §10). Its first pass banks each
// running kernel's progress over [lastUpdate, now] at the rate and share the
// previous sweep fixed, then gives it its new share and raw gain, in
// admission order; its second pass applies the aggregate ceiling and the
// contention jitter, refreshes the completion keys the new rates move, and
// finds the least key for the device timer. Neither pass calls out of line.
//
// fresh is the kernel start just appended: it has no progress to bank. gone
// is the kernel complete or Abort is retiring: it is banked, then dropped
// from the running set in the same pass. Either may be nil. The per-context
// aggregates must already describe the new running set.
func (d *Device) recompute(now des.Time, fresh, gone *Kernel) {
	dtMS := float64(now-d.lastUpdate) / float64(des.Millisecond)
	d.lastUpdate = now

	// SM allocation per context by two-level waterfilling: the device's
	// SMs go to busy contexts in proportion to their active kernel
	// weight, but a context can never exceed its own SM allocation.
	// When the pool is not over-subscribed every busy context simply
	// receives its full allocation; when it is, SMs follow the load —
	// which is exactly the benefit of larger (over-subscribed) contexts:
	// a context with more runnable work can soak up SMs a rigid small
	// partition could not.
	alloc := d.waterfill()
	for _, c := range d.contexts {
		if c.weightSum > 0 {
			c.setShares(alloc[c.id])
		}
	}

	// First pass: bank progress, then raw gains from intra-context
	// weighted splits. Each kernel is banked before its rate and share are
	// overwritten, and every accumulation runs in admission order with the
	// operands a separate banking pass would use, so the totals are
	// bit-identical. The accumulators live in locals: the compiler cannot
	// keep the device fields in registers across the kernel writes.
	workDone, busySMTime := d.workDone, d.busySMTime
	var gainSum float64
	running := d.running
	n := 0
	for _, k := range running {
		if dtMS > 0 && k != fresh {
			remaining := dtMS
			if k.remainingFixed > 0 {
				df := remaining
				if df > k.remainingFixed {
					df = k.remainingFixed
				}
				k.remainingFixed -= df
				remaining -= df
			}
			if remaining > 0 && k.remainingWork > 0 {
				done := remaining * k.rate
				if done > k.remainingWork {
					done = k.remainingWork
				}
				//sgprs:allow floatfold — per-kernel countdown: the lone += (fault-injection work inflation, Kernel.InflateWork) happens at launch, before any decrement
				k.remainingWork -= done
				busy := k.effSMs * remaining / 1000
				workDone += done
				busySMTime += busy
				if d.recording {
					d.recWork = append(d.recWork, done)
					d.recBusy = append(d.recBusy, busy)
				}
			}
		}
		if k == gone {
			continue
		}
		running[n] = k
		n++
		share := k.stream.ctx.share(k)
		k.effSMs = share
		gain := k.aggregateGain(share)
		if k.remainingWork > workEpsilon && gain <= 0 {
			panic(fmt.Sprintf("gpu: kernel %q has work but zero gain at %.2f SMs", k.Label, k.effSMs))
		}
		k.rate = gain
		gainSum += gain
	}
	if n < len(running) {
		running[n] = nil
	}
	running = running[:n]
	d.running = running
	d.workDone, d.busySMTime = workDone, busySMTime
	d.recomputes++
	d.visits += uint64(n)

	// Bandwidth ceiling: proportional scale-down when the sum of gains
	// exceeds the device's aggregate cap. It models cross-kernel DRAM
	// contention and therefore never binds a lone kernel — a single
	// kernel's memory limits are already encoded in its class curve
	// (that is what Figure 1 measures in isolation). Over-subscription
	// wastes a slice of the ceiling itself (context interleaving,
	// thrashed L2): the deterministic contention penalty shrinks the
	// effective cap as the demand ratio grows.
	//
	// Per-kernel contention jitter applies after the ceiling: it is
	// variance the ceiling cannot renormalise away — the paper's "poor
	// predictability" under heavy over-subscription. A ceiling that does
	// not bind scales by f = 1 and a device that is not over-subscribed
	// divides by 1 + 0·u = 1; both are exact identities, so one loop
	// covers all four cases with the arithmetic of four specialised ones.
	ratio := float64(d.busyDemand) / float64(d.effSMs)
	f, cj := 1.0, 0.0
	if ratio > 1 {
		cj = d.cfg.ContentionJitter * (ratio - 1)
	}
	if n >= 2 {
		ceiling := d.cfg.AggregateGainCap
		if ratio > 1 {
			over := ratio - 1
			ceiling /= 1 + float64(d.cfg.ContentionPenalty*over*over)
		}
		if gainSum > ceiling {
			f = ceiling / gainSum
		}
	}

	// Second pass: final rates and completion keys. A kernel whose rate
	// did not change since its key was last derived keeps that key:
	// progress is linear in time at a fixed rate, so the finish instant
	// computed back then is still the finish instant now. Otherwise the
	// key is re-derived exactly where the kernel's own finish event would
	// have been scheduled or moved, and reserves an engine sequence number
	// exactly where that event would have drawn one — including the
	// engine's no-move rule, which keeps the old number when the instant
	// is unchanged — so the timer reproduces the per-kernel events' firing
	// order bit for bit (DESIGN.md §3).
	var next *Kernel
	for _, k := range running {
		rate := k.rate * f / (1 + float64(cj*k.jitterU))
		k.rate = rate
		if !k.finSet || rate != k.schedRate {
			msLeft := k.remainingFixed
			if k.remainingWork > workEpsilon {
				msLeft += k.remainingWork / rate
			}
			// Ceil to the next nanosecond so the kernel never completes
			// before the work is actually done. A remainder past the
			// clock saturates at Never, by des.FromSeconds' rule: the
			// kernel cannot finish in any run, and converting it
			// unchecked would wrap to a negative instant.
			at := des.Never
			if ns := msLeft * float64(des.Millisecond); ns < float64(des.Never) {
				at = now.Add(des.Time(ns) + 1)
			}
			k.schedRate = rate
			if !k.finSet || k.finAt != at {
				k.finAt, k.finSeq, k.finSet = at, d.eng.NextSeq(), true
			}
		}
		next = earlier(next, k)
	}
	d.arm(next)
}

// earlier returns whichever of a (possibly nil) and b holds the lesser
// completion key — the engine's (time, sequence) order.
func earlier(a, b *Kernel) *Kernel {
	if a == nil || b.finAt < a.finAt || (b.finAt == a.finAt && b.finSeq < a.finSeq) {
		return b
	}
	return a
}

// arm holds the device timer at next's completion key — the least among the
// running kernels — or parks it when nothing runs.
func (d *Device) arm(next *Kernel) {
	d.next = next
	if next == nil {
		d.eng.Cancel(&d.timer)
		return
	}
	d.eng.RescheduleKeyed(&d.timer, next.finAt, next.finSeq)
}

// scratchFloats returns *buf resized to the context count and zeroed.
func (d *Device) scratchFloats(buf *[]float64) []float64 {
	n := len(d.contexts)
	if cap(*buf) < n {
		*buf = make([]float64, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return *buf
}

// waterfill distributes the device's SMs across busy contexts (weightSum > 0)
// in proportion to their active kernel weights, capping each context at its
// own SM allocation and redistributing the surplus until it is absorbed. The
// result is indexed by context ID; idle contexts get zero. The returned slice
// is a scratch buffer owned by the device, valid until the next recompute.
//
// When the busy contexts' summed allocations fit the device, the loop is
// skipped entirely: every busy context receives exactly its full allocation.
// That early out is bit-identical to running the loop. Weight sums are exact
// small integers (priority weights are 1 and 3), so each round's
// want = remaining·w/openWeight rounds to a float ≥ ctx.sms whenever its
// rational value is — ctx.sms is exactly representable — and since the wants
// of the uncapped contexts sum to remaining ≥ their summed allocations, some
// context caps (at exactly float64(ctx.sms)) in every round until none
// remain. The loop can never fall through to a proportional split below a
// busy context's allocation when demand fits.
func (d *Device) waterfill() []float64 {
	alloc := d.scratchFloats(&d.allocScratch)
	demand := 0
	for _, ctx := range d.contexts {
		if ctx.weightSum > 0 {
			demand += ctx.sms
		}
	}
	if demand <= d.effSMs {
		for _, ctx := range d.contexts {
			if ctx.weightSum > 0 {
				alloc[ctx.id] = float64(ctx.sms)
			}
		}
		return alloc
	}
	capped := d.cappedScratch
	if cap(capped) < len(d.contexts) {
		capped = make([]bool, len(d.contexts))
		d.cappedScratch = capped
	} else {
		capped = capped[:len(d.contexts)]
		clear(capped)
	}
	remaining := float64(d.effSMs)
	for {
		var openWeight float64
		for _, ctx := range d.contexts {
			if ctx.weightSum > 0 && !capped[ctx.id] {
				openWeight += ctx.weightSum
			}
		}
		if openWeight == 0 || remaining <= 0 {
			return alloc
		}
		progress := false
		for _, ctx := range d.contexts {
			if ctx.weightSum == 0 || capped[ctx.id] {
				continue
			}
			want := remaining * ctx.weightSum / openWeight
			if want >= float64(ctx.sms) {
				alloc[ctx.id] = float64(ctx.sms)
				capped[ctx.id] = true
				progress = true
			}
		}
		if !progress {
			// Nobody hit a cap: the proportional split stands.
			for _, ctx := range d.contexts {
				if ctx.weightSum > 0 && !capped[ctx.id] {
					alloc[ctx.id] = remaining * ctx.weightSum / openWeight
				}
			}
			return alloc
		}
		// Recompute the pot after removing capped contexts.
		remaining = float64(d.effSMs)
		for _, ctx := range d.contexts {
			if capped[ctx.id] {
				remaining -= float64(ctx.sms)
			}
		}
	}
}

// complete retires k, recomputes the remaining kernels, and pumps the stream.
func (d *Device) complete(k *Kernel, now des.Time) {
	ctx := k.stream.ctx
	k.started = false
	k.finSet = false
	ctx.activeKernels--
	if ctx.activeKernels == 0 {
		d.busyDemand -= ctx.sms
	}
	//sgprs:allow floatfold — priority weights are small exact integers; integer-float += / -= never rounds (DESIGN.md §10)
	ctx.weightSum -= k.stream.priority.weight()
	d.recompute(now, nil, k)
	// The sweep banked k's last interval at its final rate. The finish
	// instant is rounded to nanoseconds, so up to ~1ns of rate can remain
	// numerically; anything beyond that is an engine bug.
	slack := 1e-5 * (1 + k.rate)
	if k.remainingWork > slack || k.remainingFixed > slack {
		panic(fmt.Sprintf("gpu: kernel %q completed with %.3g ms work and %.3g ms fixed left",
			k.Label, k.remainingWork, k.remainingFixed))
	}
	s := k.stream
	s.running = nil
	d.completedKernels++
	if d.observer != nil {
		d.observer.KernelFinished(k, now)
	}
	if k.OnComplete != nil {
		k.OnComplete(now)
	}
	// The fault hook must see the kernel before OnDone can free it.
	if d.hook != nil {
		d.hook.KernelRetired(k, now)
	}
	// OnDone runs last and hands ownership back to the scheduler: the
	// kernel may be reset and reused before it returns, so no field of k
	// is read past this point.
	if k.OnDone != nil {
		k.OnDone(k, now)
	}
	d.pump(s)
}

// Abort removes a running kernel from the device mid-flight — the transient
// kernel-fault injection point. Progress up to now is banked (the work was
// genuinely executed before the fault), then the kernel is evicted exactly as
// complete would evict it — running-set removal, completion-key clearing,
// context aggregates, rate recompute, stream pump — except that no completion
// accounting or lifecycle callback fires: the fault injector drives recovery
// explicitly through the scheduler. On return the kernel is detached
// (Stream() == nil) with its partial remainders intact, so a recovery policy
// may Submit it again (a fresh run from scratch: Submit re-derives the
// remainders) or hand it to FreeKernel. Aborting a kernel that is not
// running is a programming error and panics.
func (d *Device) Abort(k *Kernel, now des.Time) {
	if !k.started {
		panic(fmt.Sprintf("gpu: abort of non-running kernel %q", k.Label))
	}
	ctx := k.stream.ctx
	k.started = false
	k.finSet = false
	ctx.activeKernels--
	if ctx.activeKernels == 0 {
		d.busyDemand -= ctx.sms
	}
	//sgprs:allow floatfold — priority weights are small exact integers; integer-float += / -= never rounds (DESIGN.md §10)
	ctx.weightSum -= k.stream.priority.weight()
	d.recompute(now, nil, k)
	s := k.stream
	s.running = nil
	k.stream = nil
	d.pump(s)
}

// CancelLaunch retracts a kernel that pump has dispatched but that has not
// started executing — it is sitting in its launch-overhead window, with a
// detached gpu.launch event already in flight. The event cannot be retracted
// (monotone events are engine-owned), so cancellation detaches the kernel
// instead: the stream slot is freed and the pending kernelStart finds a nil
// stream and returns. The caller must not FreeKernel it: the in-flight event
// still references it, so reusing it within the run would let a later Submit
// race the stale start. It stays out of circulation until the next Reset,
// which runs after the engine reset has dropped that event and reclaims it
// with every other kernel. Cancelling a kernel that is already running (use
// Abort) or not dispatched is a programming error.
func (d *Device) CancelLaunch(k *Kernel) {
	if k.started {
		panic(fmt.Sprintf("gpu: cancel of running kernel %q (use Abort)", k.Label))
	}
	if k.stream == nil || k.stream.running != k {
		panic(fmt.Sprintf("gpu: cancel of undispatched kernel %q", k.Label))
	}
	s := k.stream
	s.running = nil
	k.stream = nil
	// Deliberately no pump: cancellation is only used while draining a
	// stream, and the caller empties the queue in the same pass.
}
