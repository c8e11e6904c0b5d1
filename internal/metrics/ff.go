package metrics

import (
	"math"

	"sgprs/internal/des"
	"sgprs/internal/rt"
)

// This file is the collector half of the steady-state fast-forward layer
// (DESIGN.md §12): once the simulation state is proven to recur with period
// D, the collector records every metric-visible operation of one measurement
// cycle and replays the sequence over the k skipped cycles — appending the
// identical slots, writing the identical response-time floats (a response
// time is a difference of two instants that both shift by c·D, so the float
// is reused verbatim), and bumping the counters exactly as full simulation
// would have. Slot indices translate by the per-cycle append counts: a cycle
// appends a fixed number of backlog intervals and response slots, so the
// recurrence of slot b sits at b + c·perCycle.

// FFStats reports what the steady-state fast-forward layer did during a run.
// All-zero means it never engaged (ineligible workload or disabled).
type FFStats struct {
	// BoundariesHashed counts release-boundary states fingerprinted.
	BoundariesHashed uint64
	// HashCollisions counts fingerprint hash matches whose verify-on-match
	// byte comparison failed — the collision safety net engaging.
	HashCollisions uint64
	// CyclesDetected counts confirmed state recurrences.
	CyclesDetected uint64
	// CyclesSkipped counts whole hyperperiod cycles extrapolated
	// analytically instead of simulated.
	CyclesSkipped uint64
}

// opKind is the origin tag of one recorded metric operation. It is a named
// enum on purpose: the replay switch must stay exhaustive (tagswitch,
// DESIGN.md §14), so a new op kind recorded for fingerprinting cannot
// silently fall through the extrapolation and desynchronize the collector
// from the full simulation it stands in for.
type opKind uint8

// Recorded-op origin tags.
const (
	opRelease opKind = iota
	opDone
	opDiscard
)

// ffOp is one recorded metric operation of the measurement cycle.
type ffOp struct {
	kind opKind
	// inWin carries JobReleased's in-window decision (release ops) or
	// JobDone's window test (done ops).
	inWin bool
	// late and val carry JobDone's deadline verdict and response-time
	// milliseconds, reused verbatim (see file comment).
	late bool
	// hasResp records MetricsSlot >= 0 for done/discard ops.
	hasResp bool
	// slot and respSlot are the op's absolute BacklogSlot / MetricsSlot in
	// the recorded cycle; replay translates them by c·perCycle.
	slot     int
	respSlot int
	// at is the op's absolute instant in the recorded cycle.
	at  des.Time
	val float64
}

// BeginRecording starts capturing metric operations. The caller records
// exactly one cycle (t, t+D] and must EndRecording at its close.
func (c *Collector) BeginRecording() {
	c.recording = true
	c.recOps = c.recOps[:0]
	c.recStartsBase = len(c.starts)
	c.recRespBase = len(c.resp)
}

// EndRecording stops capturing and fixes the per-cycle append counts.
func (c *Collector) EndRecording() {
	c.recording = false
	c.recPerCycleStarts = len(c.starts) - c.recStartsBase
	c.recPerCycleResp = len(c.resp) - c.recRespBase
}

// Replay applies the recorded cycle k more times, each shifted one further
// cycle of length D. Replayed cycle c covers simulated time (t+c·D,
// t+(c+1)·D]; done/discard ops may close backlog intervals opened before
// their own cycle (a pipelined job finishing one cycle after its release),
// which is exactly why slots are translated rather than re-derived.
func (c *Collector) Replay(k int, cycle des.Time) {
	for cyc := 1; cyc <= k; cyc++ {
		shift := des.Time(int64(cycle) * int64(cyc))
		ds := cyc * c.recPerCycleStarts
		dr := cyc * c.recPerCycleResp
		for i := range c.recOps {
			op := &c.recOps[i]
			switch op.kind {
			case opRelease:
				c.starts = append(c.starts, op.at+shift)
				c.ends = append(c.ends, des.Never)
				if op.inWin {
					c.released++
					c.resp = append(c.resp, math.NaN())
				}
			case opDone:
				c.ends[op.slot+ds] = op.at + shift
				c.endLog = append(c.endLog, op.at+shift)
				if op.inWin {
					c.completed++
				}
				if op.hasResp {
					c.completedReleased++
					if op.late {
						c.lateCompleted++
					}
					c.resp[op.respSlot+dr] = op.val
				}
			case opDiscard:
				c.ends[op.slot+ds] = op.at + shift
				c.endLog = append(c.endLog, op.at+shift)
				if op.hasResp {
					c.dropped++
				}
			}
		}
	}
}

// ShiftSlots retargets a live job's collector slots to those of its
// recurrence k cycles later. A warped job stands in for the job full
// simulation would have released k cycles after it; every cycle appends the
// same number of backlog intervals and response slots, so the recurrence's
// slots sit exactly k per-cycle counts higher. Valid only between
// EndRecording and the resumed tail simulation.
func (c *Collector) ShiftSlots(j *rt.Job, k int) {
	j.BacklogSlot += k * c.recPerCycleStarts
	if j.MetricsSlot >= 0 {
		j.MetricsSlot += k * c.recPerCycleResp
	}
}

// MinOpenRelease reports the earliest release instant among jobs whose
// backlog interval is still open — the oldest in-flight job — or des.Never
// when nothing is in flight. The fast-forward layer requires it to be at or
// past the warm-up before extrapolating: a straggler released before warm-up
// has no response slot, and its recorded completion would not replay the way
// in-window completions do.
func (c *Collector) MinOpenRelease() des.Time {
	min := des.Never
	for i, end := range c.ends {
		if end == des.Never && c.starts[i] < min {
			min = c.starts[i]
		}
	}
	return min
}

// CollectorSnapshot is a copy of the collector's accumulated state, for the
// fast-forward lockstep equivalence tests (boundary-by-boundary comparison of
// an extrapolated run against a fully simulated one).
type CollectorSnapshot struct {
	Released          int
	Completed         int
	CompletedReleased int
	LateCompleted     int
	Dropped           int
	Resp              []float64
	Starts, Ends      []des.Time
	EndLog            []des.Time
}

// DebugSnapshot copies the collector's counters and slot arrays.
func (c *Collector) DebugSnapshot() CollectorSnapshot {
	return CollectorSnapshot{
		Released:          c.released,
		Completed:         c.completed,
		CompletedReleased: c.completedReleased,
		LateCompleted:     c.lateCompleted,
		Dropped:           c.dropped,
		Resp:              append([]float64(nil), c.resp...),
		Starts:            append([]des.Time(nil), c.starts...),
		Ends:              append([]des.Time(nil), c.ends...),
		EndLog:            append([]des.Time(nil), c.endLog...),
	}
}

// recordRelease, recordDone, and recordDiscard are the collector's recording
// taps, called by the lifecycle methods while recording is on.
func (c *Collector) recordRelease(j *rt.Job) {
	c.recOps = append(c.recOps, ffOp{
		kind:  opRelease,
		inWin: j.MetricsSlot >= 0,
		at:    j.Release,
	})
}

func (c *Collector) recordDone(j *rt.Job, now des.Time, inWin bool) {
	op := ffOp{
		kind:    opDone,
		inWin:   inWin,
		hasResp: j.MetricsSlot >= 0,
		slot:    j.BacklogSlot,
		at:      now,
	}
	if op.hasResp {
		op.respSlot = j.MetricsSlot
		op.late = now > j.Deadline
		op.val = c.resp[j.MetricsSlot]
	}
	c.recOps = append(c.recOps, op)
}

func (c *Collector) recordDiscard(j *rt.Job, now des.Time) {
	c.recOps = append(c.recOps, ffOp{
		kind:    opDiscard,
		hasResp: j.MetricsSlot >= 0,
		slot:    j.BacklogSlot,
		at:      now,
	})
}
