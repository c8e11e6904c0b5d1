package core

import (
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
	// Flow control, in task-ID order: the tasks that ever had an active
	// frame, then those that ever had a held one, each with its frame or
	// an explicit absence (a slot emptied by jobOver stays listed).
	buf = s.encodeFlows(buf, jobEnc, func(f *taskFlow) (*rt.Job, bool) { return f.active, f.wasActive })
	buf = s.encodeFlows(buf, jobEnc, func(f *taskFlow) (*rt.Job, bool) { return f.held, f.wasHeld })
	buf = des.AppendU64(buf, uint64(len(s.heldOrder)))
	for _, id := range s.heldOrder {
		buf = des.AppendU64(buf, uint64(id))
	}
	return buf
}

// encodeFlows appends the count of listed tasks, then per listed task its ID,
// a presence byte and, when present, the job. slot reports a task's frame
// and whether the task is listed.
func (s *Scheduler) encodeFlows(buf []byte, jobEnc func(buf []byte, j *rt.Job) []byte, slot func(f *taskFlow) (*rt.Job, bool)) []byte {
	s.encIDs = s.encIDs[:0]
	for id := range s.flows {
		if _, listed := slot(&s.flows[id]); listed {
			s.encIDs = append(s.encIDs, id)
		}
	}
	buf = des.AppendU64(buf, uint64(len(s.encIDs)))
	for _, id := range s.encIDs {
		buf = des.AppendU64(buf, uint64(id))
		if j, _ := slot(&s.flows[id]); j != nil {
			buf = append(buf, 1)
			buf = jobEnc(buf, j)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf
}

// ForEachJob visits every live job the scheduler itself references: active
// frames in the stage pipeline and held frames awaiting admission. Jobs
// referenced only through device kernels are a subset of the active ones,
// but the fast-forward layer deduplicates across both enumerations anyway.
func (s *Scheduler) ForEachJob(f func(j *rt.Job)) {
	for i := range s.flows {
		if j := s.flows[i].active; j != nil {
			f(j)
		}
	}
	for i := range s.flows {
		if j := s.flows[i].held; j != nil {
			f(j)
		}
	}
}
