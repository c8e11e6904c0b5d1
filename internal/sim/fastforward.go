package sim

import (
	"bytes"

	"sgprs/internal/core"
	"sgprs/internal/des"
	"sgprs/internal/gpu"
	"sgprs/internal/metrics"
	"sgprs/internal/naive"
	"sgprs/internal/rt"
	"sgprs/internal/workload"
)

// Steady-state fast-forward (DESIGN.md §12). A deterministic run of a
// closed-loop periodic workload is a fixed orbit: once the full dynamic state
// at one release boundary recurs at a later boundary, every subsequent cycle
// repeats the first one exactly, shifted in time. The driver below detects
// the recurrence by fingerprinting the complete dynamic state at each
// boundary, measures one cycle's metric deltas, extrapolates them over the
// remaining whole cycles analytically, warps the clock past them, and
// simulates only the horizon tail — producing results bit-identical to full
// simulation (the equivalence tests pin this against each run's ineligible
// twin, the same config with an empty fault.Config).
//
// Eligibility is strict: any stochastic draw that reaches the dynamics
// (release jitter, work variation, non-periodic arrivals, contention jitter)
// makes states non-recurring and the run falls back to plain simulation, as
// does any failure to detect a cycle within the probe caps. Falling back is
// always correct — fast-forward is an optimisation, never a semantic.

const (
	// ffMaxBoundaries caps how many release boundaries are fingerprinted
	// before giving up on detection (a genuinely aperiodic float orbit).
	ffMaxBoundaries = 512
	// ffMaxArenaBytes caps the retained fingerprint bytes.
	ffMaxArenaBytes = 4 << 20
)

// ffHashDefault is FNV-1a 64. The collision-safety tests swap in a truncated
// hash via Session.ffHash to force collisions and prove the verify-on-match
// byte comparison never lets one through.
func ffHashDefault(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

// ffEntry locates one stored fingerprint in the session's arena.
type ffEntry struct {
	off, n int
	at     des.Time
}

// ffRun carries one run's fast-forward state.
type ffRun struct {
	s        *Session
	dev      *gpu.Device
	gen      *workload.Generator
	coreSch  *core.Scheduler
	naiveSch *naive.Scheduler
	period   des.Time
	horizon  des.Time
	// now is the boundary being encoded; job instants and frame indices are
	// encoded relative to it (and to Session.ffNext) so that recurring
	// states match bytewise.
	now   des.Time
	stats metrics.FFStats
}

// runToHorizon drives the online phase from the post-Start state to the
// horizon, fast-forwarding when the run is eligible and a cycle is found.
// It replaces the plain RunUntil(horizon) in Session.Run. Only a fleet of one
// is eligible: its dispatcher state is constant during an eligible run
// (DESIGN.md §12), so the fingerprint covers the sole device and scheduler.
func (s *Session) runToHorizon(cfg RunConfig, gen *workload.Generator, tasks []*rt.Task, warmUp, horizon des.Time) metrics.FFStats {
	r := ffRun{s: s, dev: s.devs[0], gen: gen, horizon: horizon}
	period, steady := gen.SteadyPeriod()
	r.period = period
	eligible := steady &&
		cfg.Observer == nil &&
		cfg.Faults == nil &&
		cfg.GPU.ContentionJitter == 0
	switch v := s.fleet.Sole().(type) {
	case *core.Scheduler:
		r.coreSch = v
	case *naive.Scheduler:
		r.naiveSch = v
	default:
		eligible = false
	}
	if !eligible {
		// Reference path. With a lockstep trace installed, run it chunked
		// at the same boundaries the fast-forward path visits — chunked
		// RunUntil is equivalent to one call, so the trace changes nothing.
		if s.ffTrace != nil && steady {
			r.chunkUntil(horizon)
		}
		s.eng.RunUntil(horizon)
		return r.stats
	}

	var maxRelDl des.Time
	for _, t := range tasks {
		if t.Deadline > maxRelDl {
			maxRelDl = t.Deadline
		}
	}

	hash := s.ffHash
	if hash == nil {
		hash = ffHashDefault
	}
	if s.ffNext == nil {
		s.ffNext = map[int]int{}
	}
	s.ffArena = s.ffArena[:0]
	s.ffEnts = s.ffEnts[:0]
	if s.ffHashes == nil {
		s.ffHashes = map[uint64]int{}
	} else {
		clear(s.ffHashes)
	}

	// First boundary: the smallest period multiple at or past the warm-up —
	// never extrapolate into the warm-up window. Rounding up and stepping
	// saturate at Never, so a period near it ends the loop instead of
	// wrapping the boundary back towards 0.
	b := warmUp / period * period
	if b < warmUp {
		b = b.Add(period)
	}
	for ; b < horizon; b = b.Add(period) {
		s.eng.RunUntil(b)
		if s.ffTrace != nil {
			s.ffTrace(b)
		}
		if len(s.ffEnts) >= ffMaxBoundaries {
			break
		}
		fp := r.fingerprint(b)
		r.stats.BoundariesHashed++
		h := hash(fp)
		prev, seen := s.ffHashes[h]
		if !seen {
			if len(s.ffArena)+len(fp) > ffMaxArenaBytes {
				break
			}
			s.ffHashes[h] = len(s.ffEnts)
			s.ffEnts = append(s.ffEnts, ffEntry{off: len(s.ffArena), n: len(fp), at: b})
			s.ffArena = append(s.ffArena, fp...)
			continue
		}
		ent := s.ffEnts[prev]
		if !bytes.Equal(fp, s.ffArena[ent.off:ent.off+ent.n]) {
			// Hash collision between genuinely different states: the
			// verify-on-match comparison catches it and the run continues
			// as plain simulation of this boundary.
			r.stats.HashCollisions++
			continue
		}
		// Confirmed recurrence: the state at b equals the state at ent.at,
		// so the run cycles with period D from here on.
		r.stats.CyclesDetected++
		D := b - ent.at
		// Extrapolation guard: every in-flight job must have been released
		// inside the verified periodic window (age < D) and past warm-up —
		// otherwise its collector slots would not translate uniformly.
		// Recurrence makes the in-flight age profile recur too, so if this
		// fails now it fails at every match of this orbit; plain simulation
		// of the remaining horizon is the correct fallback either way.
		if s.collector.MinOpenRelease() <= ent.at {
			continue
		}
		t3 := b + D
		// k whole cycles beyond the measurement cycle can be skipped while
		// every extrapolated release keeps its deadline strictly inside the
		// horizon — the in-window rule full simulation would apply.
		margin := int64(horizon) - int64(t3) - int64(maxRelDl)
		if margin <= int64(D) {
			break // steady state known, but nothing left worth skipping
		}
		k := int((margin - 1) / int64(D))
		// Measure one full cycle (b, t3], recording every metric write and
		// accounting operand.
		s.collector.BeginRecording()
		r.dev.BeginRecording()
		s.eng.RunUntil(t3)
		if s.ffTrace != nil {
			s.ffTrace(t3)
		}
		completedDelta := r.dev.EndRecording()
		s.collector.EndRecording()
		// Defensive re-verification: determinism guarantees the state at t3
		// matches the stored fingerprint; anything else means the
		// fingerprint missed real state, and extrapolating would corrupt
		// results. Fall back to plain simulation.
		if !bytes.Equal(r.fingerprint(t3), s.ffArena[ent.off:ent.off+ent.n]) {
			r.stats.HashCollisions++
			break
		}
		delta := des.Time(int64(D) * int64(k))
		s.collector.Replay(k, D)
		r.dev.ReplayCycles(k, completedDelta)
		r.warpJobs(delta, k)
		gen.Warp(delta, k*int(int64(D)/int64(period)))
		s.eng.Warp(delta)
		r.dev.Warp(delta)
		r.stats.CyclesSkipped += uint64(k)
		if s.ffTrace != nil {
			s.ffTrace(t3 + delta)
		}
		break
	}
	if s.ffTrace != nil {
		r.chunkUntil(horizon)
	}
	s.eng.RunUntil(horizon)
	return r.stats
}

// chunkUntil advances to the horizon boundary by boundary, firing the
// lockstep trace at each one. Chunked RunUntil is equivalent to one call: the
// engine fires the same events in the same order either way.
func (r *ffRun) chunkUntil(horizon des.Time) {
	p := r.period
	for {
		now := r.s.eng.Now()
		next := (now / p * p).Add(p)
		if next >= horizon {
			return
		}
		r.s.eng.RunUntil(next)
		r.s.ffTrace(next)
	}
}

// fingerprint encodes the complete dynamic state at boundary now into the
// session's reused buffer: release-chain phase, pending engine events, the
// device, and the scheduler. All instants are relative to now and all frame
// indices relative to each chain's next index, so two boundaries one cycle
// apart encode identically.
func (r *ffRun) fingerprint(now des.Time) []byte {
	r.now = now
	clear(r.s.ffNext)
	buf := r.s.ffBuf[:0]
	r.gen.ForEachChain(func(taskID, nextIdx int, last des.Time) {
		r.s.ffNext[taskID] = nextIdx
		buf = des.AppendU64(buf, uint64(taskID))
		buf = des.AppendI64(buf, int64(last-now))
	})
	buf = r.s.eng.EncodePending(buf, r.dev.AppendPending, r.eventTag)
	buf = r.dev.EncodeState(buf, now, r.argEnc)
	if r.coreSch != nil {
		buf = r.coreSch.EncodeState(buf, r.jobEnc)
	} else {
		buf = r.naiveSch.EncodeState(buf)
	}
	r.s.ffBuf = buf
	return buf
}

// eventTag names a pending engine event's payload: release chains by task,
// kernels by execution position. The device tag space is offset so the two
// can never alias under one label.
func (r *ffRun) eventTag(label string, arg any) uint64 {
	if t, ok := r.gen.EventTag(arg); ok {
		return t
	}
	if t, ok := r.dev.EventTag(arg); ok {
		return 1<<48 | t
	}
	return 0
}

// argEnc encodes a kernel's scheduler payload: the SGPRS core launches
// stages, the naive baseline whole jobs.
func (r *ffRun) argEnc(buf []byte, arg any) []byte {
	switch v := arg.(type) {
	case *rt.StageJob:
		buf = append(buf, 1)
		buf = r.jobEnc(buf, v.Job)
		return des.AppendU64(buf, uint64(v.Index))
	case *rt.Job:
		buf = append(buf, 2)
		return r.jobEnc(buf, v)
	default:
		return append(buf, 0)
	}
}

// jobEnc encodes one live job: identity (task, frame index relative to the
// chain), instants relative to the boundary, and per-stage progress.
// MetricsSlot and BacklogSlot are excluded — they index collector output
// arrays and never influence dynamics.
func (r *ffRun) jobEnc(buf []byte, j *rt.Job) []byte {
	buf = des.AppendU64(buf, uint64(j.Task.ID))
	buf = des.AppendI64(buf, int64(j.Index-r.s.ffNext[j.Task.ID]))
	buf = des.AppendI64(buf, int64(j.Release-r.now))
	buf = des.AppendI64(buf, int64(j.Deadline-r.now))
	buf = des.AppendF64(buf, j.WorkScale)
	buf = des.AppendBool(buf, j.Done)
	buf = des.AppendBool(buf, j.Discarded)
	buf = des.AppendU64(buf, uint64(len(j.Stages)))
	for _, st := range j.Stages {
		buf = des.AppendI64(buf, int64(st.Deadline-r.now))
		buf = des.AppendU64(buf, uint64(st.Level))
		buf = appendFlaggedInstant(buf, st.Ready, st.ReadyAt, r.now)
		buf = appendFlaggedInstant(buf, st.Started, st.StartedAt, r.now)
		buf = appendFlaggedInstant(buf, st.Finished, st.FinishedAt, r.now)
	}
	return buf
}

// appendFlaggedInstant encodes a flag and, only when set, its instant — an
// unset instant is stale pool residue, not state.
func appendFlaggedInstant(buf []byte, set bool, at, now des.Time) []byte {
	buf = des.AppendBool(buf, set)
	if set {
		buf = des.AppendI64(buf, int64(at-now))
	}
	return buf
}

// warpJobs translates every live job k cycles forward: instants shift by
// delta and collector slots retarget to the recurrence's (Job.Index is left
// alone — it feeds only EDF tie-breaks, which compare jobs of equal age, and
// diagnostics labels). Live jobs are reachable through the scheduler's
// flow-control maps and queues and through kernels the device still holds;
// the two enumerations overlap, so visits deduplicate.
func (r *ffRun) warpJobs(delta des.Time, k int) {
	if r.s.ffJobs == nil {
		r.s.ffJobs = map[*rt.Job]bool{}
	} else {
		clear(r.s.ffJobs)
	}
	visit := func(j *rt.Job) {
		if j == nil || r.s.ffJobs[j] {
			return
		}
		r.s.ffJobs[j] = true
		j.Release += delta
		j.Deadline += delta
		r.s.collector.ShiftSlots(j, k)
		for _, st := range j.Stages {
			st.Deadline += delta
			if st.Ready {
				st.ReadyAt += delta
			}
			if st.Started {
				st.StartedAt += delta
			}
			if st.Finished {
				st.FinishedAt += delta
			}
		}
	}
	if r.coreSch != nil {
		r.coreSch.ForEachJob(visit)
	}
	r.dev.ForEachKernelArg(func(arg any) {
		switch v := arg.(type) {
		case *rt.StageJob:
			visit(v.Job)
		case *rt.Job:
			visit(v)
		}
	})
}
