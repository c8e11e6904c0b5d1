package metrics

import (
	"fmt"
	"math"
	"slices"

	"sgprs/internal/des"
	"sgprs/internal/rt"
)

// This file is the collector half of the steady-state fast-forward layer
// (DESIGN.md §12): once the simulation state is proven to recur with period
// D, the collector records every metric-visible operation of one measurement
// cycle, and Replay stands that cycle in for the k skipped ones — the
// identical slots, the identical response-time floats (a response time is a
// difference of two instants that both shift by c·D, so the float is reused
// verbatim), and the counters bumped exactly as full simulation would have.
// Slot indices translate by the per-cycle append counts: a cycle appends a
// fixed number of backlog intervals and response slots, so the recurrence of
// slot b sits at b + c·perCycle.
//
// The skipped cycles are not stored. Each per-job array keeps the recorded
// cycle's block once, finished by replayed cycle 1's pipelined writes, and
// the last replayed cycle k, materialised; the block stands for the k−1
// cycles between them (see block). Those cycles are exact copies of it:
// replayed cycle c writes its own releases' slots and, through cycle c+1's
// done ops, its pipelined ones, all from the recorded floats and instants
// shifted by c·D. The tail writes only cycle k or later, since every job in
// flight when the recording ends was released in the recorded cycle and
// ShiftSlots moves it to cycle k. Summary reads every statistic from
// (head, block × (k−1), tail); DebugSnapshot expands the copies.

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

// block locates a recorded cycle in one per-job array: physical [cut-n,
// cut). After Replay the logical array holds mult further copies of it at
// cut, so a logical index past them sits mult·n lower physically. Writing
// into a copy is a bug: every write after Replay lands in cycle k or later.
type block struct{ cut, n int }

// phys maps a logical index to its physical one.
func (b block) phys(i, mult int) int {
	if i < b.cut {
		return i
	}
	if i -= mult * b.n; i < b.cut {
		panic("metrics: write into a replayed cycle")
	}
	return i
}

// BeginRecording starts capturing metric operations. The caller records
// exactly one cycle (t, t+D] and must EndRecording at its close. A
// collector replays at most one span per run.
func (c *Collector) BeginRecording() {
	if c.mult > 0 {
		panic("metrics: recording after a replayed span")
	}
	c.recording = true
	c.recOps = c.recOps[:0]
	c.slotBlk.cut = len(c.starts)
	c.respBlk.cut = len(c.resp)
	c.logBlk.cut = len(c.endLog)
}

// EndRecording stops capturing and fixes the recorded blocks.
func (c *Collector) EndRecording() {
	c.recording = false
	c.slotBlk = block{cut: len(c.starts), n: len(c.starts) - c.slotBlk.cut}
	c.respBlk = block{cut: len(c.resp), n: len(c.resp) - c.respBlk.cut}
	c.logBlk = block{cut: len(c.endLog), n: len(c.endLog) - c.logBlk.cut}
}

// Replay applies the recorded cycle k ≥ 1 more times, each shifted one
// further cycle of length D. Replayed cycle c covers simulated time
// (t+c·D, t+(c+1)·D]; done/discard ops may close backlog intervals opened
// before their own cycle (a pipelined job finishing one cycle after its
// release), which is exactly why slots are translated rather than
// re-derived.
//
// Replay writes two cycles' worth of slots, whatever k: cycle 1's pipelined
// writes finish the recorded block, and cycle k is appended after it. When
// k > 1 it panics unless the block can stand for the cycles between them:
// every job the recording ends must have been released in it or the cycle
// before; every interval the block opens must start at or after the
// warm-up and be closed once cycle 1 has run, in the last copy at or before
// the horizon; and the block's releases and its end log must each span at
// most D, so the copies follow one another in time.
func (c *Collector) Replay(k int, D des.Time) {
	if k < 1 {
		return
	}
	c.mult, c.period = k-1, D
	shift := des.Time(int64(D) * int64(k))
	lo := c.slotBlk.cut - c.slotBlk.n
	for i := lo; i < c.slotBlk.cut; i++ {
		c.starts = append(c.starts, c.starts[i]+shift)
		c.ends = append(c.ends, des.Never)
	}
	for range c.respBlk.n {
		c.resp = append(c.resp, math.NaN())
	}
	for i := c.logBlk.cut - c.logBlk.n; i < c.logBlk.cut; i++ {
		c.endLog = append(c.endLog, c.endLog[i]+shift)
	}
	c.replayWrites += 2*c.slotBlk.n + c.respBlk.n + c.logBlk.n
	var win tally
	var completed, dropped int
	for i := range c.recOps {
		op := &c.recOps[i]
		// An op on a slot before the block is a pipelined completion of
		// the previous cycle's job: replayed cycle 1's copy of it
		// finishes the block. Any other op writes cycle k. Both land
		// one block further on physically.
		at := op.at + shift
		if op.slot < lo {
			at = op.at + D
		}
		if c.mult > 0 && op.kind != opRelease && op.slot < lo-c.slotBlk.n {
			panic(fmt.Sprintf("metrics: replayed job at slot %d outlives a cycle", op.slot))
		}
		switch op.kind {
		case opRelease:
			if op.inWin {
				win.released++
			}
		case opDone:
			c.ends[op.slot+c.slotBlk.n] = at
			if op.inWin {
				completed++
			}
			if op.hasResp {
				win.done(op.late)
				c.resp[op.respSlot+c.respBlk.n] = op.val
				c.replayWrites++
			}
			c.replayWrites++
		case opDiscard:
			c.ends[op.slot+c.slotBlk.n] = at
			if op.hasResp {
				dropped++
			}
			c.replayWrites++
		}
	}
	c.window.add(win, k)
	c.completed += k * completed
	c.dropped += k * dropped
	if c.mult > 0 {
		c.checkCopies()
	}
}

// checkCopies panics unless the copies of the recorded block are exact (see
// Replay).
func (c *Collector) checkCopies() {
	last := des.Time(int64(c.period) * int64(c.mult))
	for i := c.slotBlk.cut - c.slotBlk.n; i < c.slotBlk.cut; i++ {
		if s, e := c.starts[i], c.ends[i]; s < c.warmUp || e == des.Never || e > c.horizon-last {
			panic(fmt.Sprintf("metrics: replayed interval [%v, %v) is not one cycle's", s, e))
		}
	}
	for _, blk := range [][]des.Time{
		c.starts[c.slotBlk.cut-c.slotBlk.n : c.slotBlk.cut],
		c.endLog[c.logBlk.cut-c.logBlk.n : c.logBlk.cut],
	} {
		if len(blk) > 0 && slices.Max(blk)-slices.Min(blk) > c.period {
			panic(fmt.Sprintf("metrics: replayed instants span more than the cycle %v", c.period))
		}
	}
}

// ReplayWrites reports how many slots Replay has written across the four
// per-job arrays since Reset — two cycles' worth per span, whatever its
// length.
func (c *Collector) ReplayWrites() int { return c.replayWrites }

// ShiftSlots retargets a live job's collector slots to those of its
// recurrence k cycles later. A warped job stands in for the job full
// simulation would have released k cycles after it; every cycle appends the
// same number of backlog intervals and response slots, so the recurrence's
// slots sit exactly k per-cycle counts higher. Valid only between
// EndRecording and the resumed tail simulation.
func (c *Collector) ShiftSlots(j *rt.Job, k int) {
	j.BacklogSlot += k * c.slotBlk.n
	if j.MetricsSlot >= 0 {
		j.MetricsSlot += k * c.respBlk.n
	}
}

// MinOpenRelease reports the earliest release instant among jobs whose
// backlog interval is still open — the oldest in-flight job — or des.Never
// when nothing is in flight (a replayed copy's intervals are all closed). The fast-forward layer requires it to be at or
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

// DebugSnapshot copies the collector's counters and slot arrays, expanding
// a replayed span's copies.
func (c *Collector) DebugSnapshot() CollectorSnapshot {
	never := func(t des.Time) bool { return t == des.Never }
	return CollectorSnapshot{
		Released:          c.window.released,
		Completed:         c.completed,
		CompletedReleased: c.window.completed,
		LateCompleted:     c.window.late,
		Dropped:           c.dropped,
		Resp:              expand(c.resp, c.respBlk, c.mult, 0, func(float64) bool { return true }),
		Starts:            expand(c.starts, c.slotBlk, c.mult, c.period, never),
		Ends:              expand(c.ends, c.slotBlk, c.mult, c.period, never),
		EndLog:            expand(c.endLog, c.logBlk, c.mult, c.period, never),
	}
}

// expand returns a copy of the logical array xs stands for: its block
// repeated mult more times at b.cut, the c-th copy's elements shifted by
// c·period unless fixed holds for them.
func expand[T float64 | des.Time](xs []T, b block, mult int, period T, fixed func(T) bool) []T {
	out := make([]T, 0, len(xs)+mult*b.n)
	out = append(out, xs[:b.cut]...)
	for c := 1; c <= mult; c++ {
		for _, x := range xs[b.cut-b.n : b.cut] {
			if !fixed(x) {
				x += T(T(c) * period)
			}
			out = append(out, x)
		}
	}
	return append(out, xs[b.cut:]...)
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
