package gpu

import (
	"sgprs/internal/des"
	"sgprs/internal/stats"
)

// This file is the device half of the steady-state fast-forward layer
// (DESIGN.md §12): the canonical encoding of all dynamic device state, the
// identity tags for pending gpu events, the clock warp, and the
// record/replay machinery that extrapolates the accounting integrals
// bit-identically over skipped cycles.
//
// Fast-forward eligibility requires ContentionJitter == 0: each kernel's
// jitterU draw is then divided in as 1 + 0·(ratio−1)·u ≡ 1.0 exactly — a
// bit-exact no-op even over-subscribed — so neither jitterU nor the device
// RNG stream is observable and neither is fingerprinted or warped.

// EncodeState appends a canonical encoding of the device's dynamic state to
// buf and returns the extended slice. argEnc encodes a kernel's scheduler
// payload (the job/stage it executes — the gpu package cannot name rt
// types); it must itself be relative (job indices and instants offset
// against the boundary), since two boundaries one cycle apart must encode
// identically.
//
// Included: the busy demand, the un-banked advance interval, every running
// kernel's full execution state in admission order, every context's
// maintained weight sum and kernel count, and every stream's pending-launch
// and queued kernels with their work specs. Excluded as derived or
// unobservable: the per-priority share caches (refreshed before every
// read), jitterU and the RNG (see above), and the accounting integrals and
// recompute counters (outputs, not dynamics).
func (d *Device) EncodeState(buf []byte, now des.Time, argEnc func(buf []byte, arg any) []byte) []byte {
	buf = des.AppendI64(buf, int64(d.busyDemand))
	buf = des.AppendTime(buf, now-d.lastUpdate)
	buf = des.AppendU64(buf, uint64(len(d.running)))
	for _, k := range d.running {
		buf = des.AppendU64(buf, uint64(k.stream.ctx.id))
		buf = des.AppendU64(buf, uint64(k.stream.id))
		buf = encodeKernel(buf, k, argEnc)
	}
	for _, c := range d.contexts {
		buf = des.AppendF64(buf, c.weightSum)
		buf = des.AppendU64(buf, uint64(c.activeKernels))
		for _, s := range c.streams {
			// A stream's occupant is either a started kernel (already
			// encoded via d.running), a pending-launch kernel (popped from
			// the queue, its gpu.launch event in flight), or nothing.
			switch {
			case s.running == nil:
				buf = append(buf, 0)
			case s.running.started:
				buf = append(buf, 1)
			default:
				buf = append(buf, 2)
				buf = encodeKernel(buf, s.running, argEnc)
			}
			buf = des.AppendU64(buf, uint64(len(s.queue)-s.head))
			for _, k := range s.queue[s.head:] {
				buf = encodeKernel(buf, k, argEnc)
			}
		}
	}
	return buf
}

// encodeKernel appends one kernel's dynamic execution state and work spec.
func encodeKernel(buf []byte, k *Kernel, argEnc func(buf []byte, arg any) []byte) []byte {
	buf = des.AppendF64(buf, k.remainingFixed)
	buf = des.AppendF64(buf, k.remainingWork)
	buf = des.AppendF64(buf, k.rate)
	buf = des.AppendF64(buf, k.effSMs)
	buf = des.AppendF64(buf, k.schedRate)
	buf = des.AppendF64(buf, k.FixedMS)
	buf = des.AppendBool(buf, k.aggOK)
	if k.aggOK {
		// The closed-form coefficients are an exact function of Shares —
		// a compact stand-in for the share list.
		buf = des.AppendF64(buf, k.aggW)
		buf = des.AppendF64(buf, k.aggP)
		buf = des.AppendF64(buf, k.aggQ)
	} else {
		buf = des.AppendU64(buf, uint64(len(k.Shares)))
		for _, s := range k.Shares {
			buf = des.AppendU64(buf, uint64(s.Class))
			buf = des.AppendF64(buf, s.Work)
		}
	}
	return argEnc(buf, k.Arg)
}

// AppendPending appends the running kernels' completion keys to dst as
// fingerprint entries for des.Engine.EncodePending, in admission order: the
// per-kernel finish events the device timer stands in for, which the engine
// encoding skips. A fingerprint built from them is byte-identical to one
// taken with one queued finish event per kernel.
func (d *Device) AppendPending(dst []des.Pending) []des.Pending {
	for _, k := range d.running {
		dst = append(dst, des.Pending{At: k.finAt, Seq: k.finSeq, Label: "gpu.finish", Arg: k})
	}
	return dst
}

// EventTag resolves a pending gpu event's identity for the engine
// fingerprint: a started kernel's completion key is named by its admission
// index (the position every accumulation visits it at), a pending launch by
// its context/stream coordinates. Reports false for foreign events.
func (d *Device) EventTag(arg any) (uint64, bool) {
	k, ok := arg.(*Kernel)
	if !ok || k.stream == nil || k.stream.ctx.device != d {
		return 0, false
	}
	if k.started {
		for i, r := range d.running {
			if r == k {
				return uint64(i) + 1, true
			}
		}
	}
	return 1<<32 | uint64(k.stream.ctx.id)<<16 | uint64(k.stream.id), true
}

// Warp translates the device's clocks forward by delta after whole cycles
// were extrapolated: the banked-progress origin and every running kernel's
// start instant and completion key shift with the engine clock (whose Warp
// moves the timer along). No rate, share, or aggregate changes — the warped
// state is exactly the pre-warp state, later.
func (d *Device) Warp(delta des.Time) {
	d.lastUpdate += delta
	for _, k := range d.running {
		k.startedAt += delta
		k.finAt += delta
	}
}

// BeginRecording starts capturing the per-advance accounting operands of one
// measurement cycle. advance chains its adds onto the running totals, so the
// replay must reproduce the identical operand sequence — not a per-cycle sum,
// which would round differently.
func (d *Device) BeginRecording() {
	d.recording = true
	d.recWork = d.recWork[:0]
	d.recBusy = d.recBusy[:0]
	d.recCompleted = d.completedKernels
}

// EndRecording stops capturing and reports how many kernels completed during
// the recorded cycle.
func (d *Device) EndRecording() (completedDelta uint64) {
	d.recording = false
	return d.completedKernels - d.recCompleted
}

// ReplayCycles advances the accounting totals by k more recorded cycles,
// bit-identically to applying the exact adds, with the exact operands, that
// full simulation of k further cycles would have performed (the operands
// are functions of the recurring state, so they repeat verbatim; only the
// running totals evolve). The two totals never read each other, so each is
// replayed on its own by stats.RepeatedSum, which jumps whole cycles of
// adds in integer ulps.
func (d *Device) ReplayCycles(k int, completedDelta uint64) {
	d.workDone = stats.RepeatedSum(d.workDone, d.recWork, k, &d.replayCounts)
	d.busySMTime = stats.RepeatedSum(d.busySMTime, d.recBusy, k, &d.replayCounts)
	d.completedKernels += uint64(k) * completedDelta
}

// ReplayStats reports the replay work of the run so far: the float adds
// ReplayCycles performed one by one, the cycles they made up, and the
// multi-cycle jumps it took instead.
func (d *Device) ReplayStats() stats.RepeatCounts { return d.replayCounts }

// ForEachKernelArg visits the scheduler payload of every kernel the device
// currently holds — running, pending launch, or queued — so the fast-forward
// layer can enumerate live jobs that only a kernel still references.
func (d *Device) ForEachKernelArg(f func(arg any)) {
	for _, c := range d.contexts {
		for _, s := range c.streams {
			if s.running != nil {
				f(s.running.Arg)
			}
			for _, k := range s.queue[s.head:] {
				f(k.Arg)
			}
		}
	}
}
