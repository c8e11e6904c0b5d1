package gpu

import (
	"fmt"
	"math"

	"sgprs/internal/des"
)

// workEpsilon absorbs floating-point residue when deciding that a kernel's
// remaining work has hit zero.
const workEpsilon = 1e-9

// gainQScale is the fixed-point scale of the conservative gain-sum bound
// (DESIGN.md §10). Quantized gains are integers, so the bound can be
// maintained with exact += / -= arithmetic across millions of running-set
// transitions — a float accumulator would drift, and a drifted bound could
// claim the aggregate ceiling is slack when the exact sweep would find it
// binding.
const gainQScale = 1 << 20

// quantizeGain rounds a gain up onto the fixed-point grid, plus one extra
// quantum (≈1e-6) that dominates every float-rounding effect separating the
// tracked bound from the slow path's exact admission-ordered summation.
func quantizeGain(g float64) int64 {
	q := math.Ceil(g * gainQScale)
	if q >= math.MaxInt64/4 {
		return math.MaxInt64 / 4
	}
	return int64(q) + 1
}

// quantizeCeiling rounds the aggregate ceiling down onto the same grid, so
// bound ≤ ceilingQ implies the exact gain sum cannot exceed the ceiling.
func quantizeCeiling(ceiling float64) int64 {
	f := ceiling * gainQScale
	if f >= math.MaxInt64/4 {
		return math.MaxInt64 / 4
	}
	return int64(f)
}

// kernelStart and kernelFinish are the shared event callbacks for kernel
// launch and completion. Using arg-style events with package-level functions
// (the device is reachable through the kernel's stream) avoids a closure
// allocation per kernel on both paths.
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

func kernelFinish(now des.Time, arg any) {
	k := arg.(*Kernel)
	k.stream.ctx.device.complete(k, now)
}

// pump starts the next queued kernel on s if the stream is idle. The kernel
// begins executing after the device's launch overhead. Popping advances the
// queue's head index and rewinds the slice once drained, keeping the backing
// array for the next burst.
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
// per-context aggregates, and recomputes rates.
func (d *Device) start(k *Kernel, now des.Time) {
	d.advance(now)
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
	ctx.running = append(ctx.running, k)
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
	d.recompute(now, ctx)
}

// advance banks every running kernel's progress for the interval
// [lastUpdate, now] at the rates fixed by the previous recompute.
func (d *Device) advance(now des.Time) {
	dtMS := float64(now-d.lastUpdate) / float64(des.Millisecond)
	d.lastUpdate = now
	if dtMS <= 0 {
		return
	}
	// Accumulate through locals: the adds happen in the identical order
	// with identical operands, but the compiler cannot keep the device
	// fields in registers across the kernel writes on its own.
	workDone, busySMTime := d.workDone, d.busySMTime
	for _, k := range d.running {
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
	d.workDone, d.busySMTime = workDone, busySMTime
}

// recompute reassigns effective SM shares and rates after the running set
// changed in the touched context, implementing the four-layer sharing model
// described in the package comment.
//
// It is incremental (DESIGN.md §10). When the device is not over-subscribed
// and the previous recompute was too (d.shapeValid), untouched contexts are
// provably unaffected by the transition: at demand ≤ TotalSMs waterfilling
// hands every busy context exactly its own allocation, so a context's shares
// — and therefore its kernels' pure gains — depend only on its own weight
// sum, which only the touched context changed. Only the touched context's
// gains are re-derived; three tiers then finish the transition:
//
//  1. Fast path: the incrementally tracked fixed-point bound proves the
//     aggregate ceiling cannot bind. Only touched kernels get new rates and
//     reschedules; untouched contexts keep their rates and their scheduled
//     finish events.
//  2. Lean ceiling path: the bound cannot rule the ceiling out, so the exact
//     admission-ordered gain sum is rebuilt from the cached per-kernel pure
//     gains — the same floats the full sweep would add in the same order —
//     and the ceiling factor is applied without waterfilling or re-deriving
//     any untouched gain.
//  3. Full sweep (fullRecompute): over-subscription (ratio > 1) or a
//     reference-mode device. Float arithmetic there is byte-for-byte the
//     original engine's.
//
// Every tier assigns bit-identical rates to what the full sweep would, so
// the path taken can never alter simulation output. The tentative shares
// written while refreshing the touched context are safe: fullRecompute
// overwrites every kernel from scratch.
func (d *Device) recompute(now des.Time, touched *Context) {
	if d.cfg.DisableIncremental || !d.shapeValid || d.busyDemand > d.effSMs {
		d.fullRecompute(now)
		return
	}
	// Refresh the touched context's shares and pure gains (the only ones
	// the transition can have changed) and its slice of the ceiling bound.
	var ctxGainQ int64
	if touched.weightSum > 0 {
		touched.setShares(float64(touched.sms))
		for _, k := range touched.running {
			share := touched.share(k)
			k.effSMs = share
			gain := k.gainV0
			if !k.aggOK || share != k.gainN0 {
				gain = k.gainAt(d.model, share)
			}
			if k.remainingWork > workEpsilon && gain <= 0 {
				panic(fmt.Sprintf("gpu: kernel %q has work but zero gain at %.2f SMs", k.Label, k.effSMs))
			}
			k.pureGain = gain
			ctxGainQ += quantizeGain(gain)
		}
	}
	d.gainBoundQ += ctxGainQ - touched.gainQ
	touched.gainQ = ctxGainQ

	if len(d.running) < 2 || d.gainBoundQ <= d.ceilingQ {
		// Tier 1: the ceiling provably cannot bind, so every rate is its
		// pure gain. If the previous assignment was ceiling-scaled, the
		// stored rates of untouched kernels are stale and every kernel
		// reverts; otherwise only the touched context moves.
		d.fastRecomputes++
		if d.lastScaled {
			d.lastScaled = false
			for _, k := range d.running {
				k.rate = k.pureGain
			}
			d.reschedule(now, d.running)
			return
		}
		for _, k := range touched.running {
			k.rate = k.pureGain
		}
		d.reschedule(now, touched.running)
		return
	}

	// Tier 2: decide the ceiling exactly, summing the cached pure gains in
	// admission order — the identical floats, added in the identical
	// order, as the full sweep's first pass.
	d.leanRecomputes++
	var gainSum float64
	for _, k := range d.running {
		gainSum += k.pureGain
	}
	ceiling := d.cfg.AggregateGainCap
	if gainSum > ceiling {
		d.lastScaled = true
		f := ceiling / gainSum
		for _, k := range d.running {
			k.rate = k.pureGain * f
		}
		d.reschedule(now, d.running)
		return
	}
	if d.lastScaled {
		d.lastScaled = false
		for _, k := range d.running {
			k.rate = k.pureGain
		}
		d.reschedule(now, d.running)
		return
	}
	for _, k := range touched.running {
		k.rate = k.pureGain
	}
	d.reschedule(now, touched.running)
}

// fullRecompute is the reference sweep over every running kernel. Its float
// arithmetic — the per-kernel share and gain expressions and the
// admission-ordered gainSum accumulation — is byte-for-byte the original
// full-recompute engine's, so slow-path results never depend on how many
// fast-path transitions preceded them.
func (d *Device) fullRecompute(now des.Time) {
	d.fullRecomputes++
	ratio := float64(d.busyDemand) / float64(d.effSMs)

	// SM allocation per context by two-level waterfilling: the device's
	// SMs go to busy contexts in proportion to their active kernel
	// weight, but a context can never exceed its own SM allocation.
	// When the pool is not over-subscribed every busy context simply
	// receives its full allocation; when it is, SMs follow the load —
	// which is exactly the benefit of larger (over-subscribed) contexts:
	// a context with more runnable work can soak up SMs a rigid small
	// partition could not.
	alloc := d.waterfill()

	// First pass: raw gains from intra-context weighted splits. The
	// fixed-point gain bound is only consumed by the incremental tiers,
	// which require ratio ≤ 1, so quantization is skipped entirely under
	// over-subscription (the bound goes stale there; the next ratio ≤ 1
	// full sweep rebuilds it before any tier reads it).
	var gainSum float64
	for _, c := range d.contexts {
		if c.weightSum > 0 {
			c.setShares(alloc[c.id])
		}
	}
	if ratio <= 1 {
		for _, c := range d.contexts {
			c.gainQ = 0
		}
		for _, k := range d.running {
			c := k.stream.ctx
			share := c.share(k)
			k.effSMs = share
			gain := k.gainV0
			if !k.aggOK || share != k.gainN0 {
				gain = k.gainAt(d.model, share)
			}
			if k.remainingWork > workEpsilon && gain <= 0 {
				panic(fmt.Sprintf("gpu: kernel %q has work but zero gain at %.2f SMs", k.Label, k.effSMs))
			}
			k.rate = gain
			k.pureGain = gain
			c.gainQ += quantizeGain(gain)
			gainSum += gain
		}
		d.gainBoundQ = 0
		for _, c := range d.contexts {
			d.gainBoundQ += c.gainQ
		}
	} else {
		for _, k := range d.running {
			c := k.stream.ctx
			share := c.share(k)
			k.effSMs = share
			gain := k.gainV0
			if !k.aggOK || share != k.gainN0 {
				gain = k.gainAt(d.model, share)
			}
			if k.remainingWork > workEpsilon && gain <= 0 {
				panic(fmt.Sprintf("gpu: kernel %q has work but zero gain at %.2f SMs", k.Label, k.effSMs))
			}
			k.rate = gain
			k.pureGain = gain
			gainSum += gain
		}
	}

	// Bandwidth ceiling: proportional scale-down when the sum of gains
	// exceeds the device's aggregate cap. It models cross-kernel DRAM
	// contention and therefore never binds a lone kernel — a single
	// kernel's memory limits are already encoded in its class curve
	// (that is what Figure 1 measures in isolation). Over-subscription
	// wastes a slice of the ceiling itself (context interleaving,
	// thrashed L2): the deterministic contention penalty shrinks the
	// effective cap as the demand ratio grows.
	scaled := false
	var f float64
	if len(d.running) >= 2 {
		ceiling := d.cfg.AggregateGainCap
		if ratio > 1 {
			over := ratio - 1
			ceiling /= 1 + d.cfg.ContentionPenalty*over*over
		}
		if gainSum > ceiling {
			scaled = true
			f = ceiling / gainSum
		}
	}

	// Per-kernel contention jitter applies after the ceiling: it is
	// variance the ceiling cannot renormalise away — the paper's "poor
	// predictability" under heavy over-subscription. Both adjustments are
	// per-kernel-independent, so one fused pass applies them in the same
	// per-kernel order as two separate sweeps would.
	// The incremental tiers may run next only if this sweep used the rigid
	// demand-fits allocation (their share reuse depends on it), and must
	// know whether the stored rates are pure share-gains or ceiling-scaled.
	d.shapeValid = ratio <= 1
	d.lastScaled = scaled || ratio > 1

	// Apply the adjustments fused with the reschedule sweep. Every
	// adjustment is per-kernel-independent and runs in the same per-kernel
	// order as separate sweeps would, so the arithmetic — and the engine
	// calls' sequence numbering — is unchanged.
	switch {
	case scaled && ratio > 1:
		cj := d.cfg.ContentionJitter * (ratio - 1)
		for _, k := range d.running {
			k.rate *= f
			k.rate /= 1 + cj*k.jitterU
			d.rescheduleOne(now, k)
		}
	case scaled:
		for _, k := range d.running {
			k.rate *= f
			d.rescheduleOne(now, k)
		}
	case ratio > 1:
		cj := d.cfg.ContentionJitter * (ratio - 1)
		for _, k := range d.running {
			k.rate /= 1 + cj*k.jitterU
			d.rescheduleOne(now, k)
		}
	default:
		d.reschedule(now, d.running)
	}
}

// reschedule refreshes the completion events of the given kernels. A kernel
// whose rate did not change since its finish event was last scheduled keeps
// that event untouched: progress is linear in time at a fixed rate, so the
// finish instant computed back then is still the finish instant now —
// re-deriving it from the banked remainder would only replay the same
// arithmetic (modulo sub-nanosecond rounding) while paying a heap fix per
// kernel per running-set change.
func (d *Device) reschedule(now des.Time, kernels []*Kernel) {
	for _, k := range kernels {
		d.rescheduleOne(now, k)
	}
}

// rescheduleOne refreshes one kernel's completion event (see reschedule).
func (d *Device) rescheduleOne(now des.Time, k *Kernel) {
	if k.finishEv != nil && k.rate == k.schedRate {
		return
	}
	var msLeft float64
	switch {
	case k.remainingWork > workEpsilon:
		msLeft = k.remainingFixed + k.remainingWork/k.rate
	default:
		msLeft = k.remainingFixed
	}
	// Ceil to the next nanosecond so the finish event never fires
	// before the work is actually done.
	at := now.Add(des.Time(msLeft*float64(des.Millisecond)) + 1)
	k.schedRate = k.rate
	if k.finishEv == nil {
		k.finishEv = d.eng.ScheduleArg(at, "gpu.finish", kernelFinish, k)
	} else {
		d.eng.Reschedule(k.finishEv, at)
	}
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
	d.advance(now)
	// The finish instant is rounded to nanoseconds, so up to ~1ns of rate
	// can remain numerically; anything beyond that is an engine bug.
	slack := 1e-5 * (1 + k.rate)
	if k.remainingWork > slack || k.remainingFixed > slack {
		panic(fmt.Sprintf("gpu: kernel %q completed with %.3g ms work and %.3g ms fixed left",
			k.Label, k.remainingWork, k.remainingFixed))
	}
	for i, r := range d.running {
		if r == k {
			d.running = append(d.running[:i], d.running[i+1:]...)
			break
		}
	}
	ctx := k.stream.ctx
	for i, r := range ctx.running {
		if r == k {
			ctx.running = append(ctx.running[:i], ctx.running[i+1:]...)
			break
		}
	}
	k.started = false
	// The finish event has just fired and the device is its only holder:
	// hand it back to the engine's pool for the next kernel.
	d.eng.Recycle(k.finishEv)
	k.finishEv = nil
	ctx.activeKernels--
	if ctx.activeKernels == 0 {
		d.busyDemand -= ctx.sms
	}
	//sgprs:allow floatfold — priority weights are small exact integers; integer-float += / -= never rounds (DESIGN.md §10)
	ctx.weightSum -= k.stream.priority.weight()
	s := k.stream
	s.running = nil
	d.completedKernels++
	d.recompute(now, ctx)
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
// complete would evict it — running-set removal, finish-event recycling,
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
	d.advance(now)
	for i, r := range d.running {
		if r == k {
			d.running = append(d.running[:i], d.running[i+1:]...)
			break
		}
	}
	ctx := k.stream.ctx
	for i, r := range ctx.running {
		if r == k {
			ctx.running = append(ctx.running[:i], ctx.running[i+1:]...)
			break
		}
	}
	k.started = false
	// Unlike complete, the finish event is still pending: Recycle removes
	// it from the queue before pooling it.
	if k.finishEv != nil {
		d.eng.Recycle(k.finishEv)
		k.finishEv = nil
	}
	ctx.activeKernels--
	if ctx.activeKernels == 0 {
		d.busyDemand -= ctx.sms
	}
	//sgprs:allow floatfold — priority weights are small exact integers; integer-float += / -= never rounds (DESIGN.md §10)
	ctx.weightSum -= k.stream.priority.weight()
	s := k.stream
	s.running = nil
	k.stream = nil
	d.recompute(now, ctx)
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
