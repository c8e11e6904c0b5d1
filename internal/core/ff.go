package core

import (
	"slices"

	"sgprs/internal/des"
	"sgprs/internal/rt"
)

// Fast-forward hooks (DESIGN.md §12). The scheduler's dynamic state is the
// per-context queues and estimates, the per-task frame flow control, and the
// pipeline-latency EWMA; everything else it holds is configuration or
// diagnostics. Durations (pendingWCET, ewmaPipeMS) are time-invariant and
// encode directly; absolute instants live inside jobs and are encoded
// relative to the boundary by the caller's job encoder. No scheduler field
// holds an absolute instant, so warping a run shifts only jobs and events —
// the scheduler itself needs no warp.

// EncodeState appends a canonical encoding of the scheduler's dynamic state
// to buf and returns the extended slice. jobEnc encodes one live job (its
// identity, per-stage state, and instants relative to the boundary).
func (s *Scheduler) EncodeState(buf []byte, jobEnc func(buf []byte, j *rt.Job) []byte) []byte {
	buf = des.AppendF64(buf, s.ewmaPipeMS)
	buf = des.AppendI64(buf, int64(s.inflight))
	for _, c := range s.ctxs {
		buf = des.AppendTime(buf, c.pendingWCET)
		buf = des.AppendI64(buf, int64(c.inFlight))
		// Queue contents in pop order — the canonical order; the heap's
		// internal layout is unobservable (sched.EDFQueue.Snapshot).
		s.encStages = c.queue.Snapshot(s.encStages[:0])
		buf = des.AppendU64(buf, uint64(len(s.encStages)))
		for _, st := range s.encStages {
			buf = jobEnc(buf, st.Job)
			buf = des.AppendU64(buf, uint64(st.Index))
		}
	}
	// Flow-control maps, iterated in sorted task-ID order (map iteration
	// order must never leak into a fingerprint). Entries with nil jobs are
	// semantically absent but kept by jobOver; encode presence explicitly.
	s.encIDs = s.encIDs[:0]
	//sgprs:allow maporder — task IDs are collected then sorted before any byte is encoded
	for id := range s.active {
		s.encIDs = append(s.encIDs, id)
	}
	slices.Sort(s.encIDs)
	buf = des.AppendU64(buf, uint64(len(s.encIDs)))
	for _, id := range s.encIDs {
		buf = des.AppendU64(buf, uint64(id))
		if j := s.active[id]; j != nil {
			buf = append(buf, 1)
			buf = jobEnc(buf, j)
		} else {
			buf = append(buf, 0)
		}
	}
	s.encIDs = s.encIDs[:0]
	//sgprs:allow maporder — task IDs are collected then sorted before any byte is encoded
	for id := range s.held {
		s.encIDs = append(s.encIDs, id)
	}
	slices.Sort(s.encIDs)
	buf = des.AppendU64(buf, uint64(len(s.encIDs)))
	for _, id := range s.encIDs {
		buf = des.AppendU64(buf, uint64(id))
		if j := s.held[id]; j != nil {
			buf = append(buf, 1)
			buf = jobEnc(buf, j)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = des.AppendU64(buf, uint64(len(s.heldOrder)))
	for _, id := range s.heldOrder {
		buf = des.AppendU64(buf, uint64(id))
	}
	return buf
}

// ForEachJob visits every live job the scheduler itself references: active
// frames in the stage pipeline and held frames awaiting admission. Jobs
// referenced only through device kernels are a subset of the active ones,
// but the fast-forward layer deduplicates across both enumerations anyway.
func (s *Scheduler) ForEachJob(f func(j *rt.Job)) {
	for _, j := range s.active {
		if j != nil {
			f(j)
		}
	}
	for _, j := range s.held {
		if j != nil {
			f(j)
		}
	}
}
