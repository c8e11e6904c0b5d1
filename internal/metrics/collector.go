package metrics

import (
	"fmt"
	"math"
	"slices"

	"sgprs/internal/des"
	"sgprs/internal/rt"
)

// Collector is the streaming counterpart of EvaluateSLO: it consumes job
// lifecycle events as the simulation produces them — releases from the
// workload generator, completions from the schedulers via rt.JobWatcher —
// and retains only counters, one response-time float per released job, and
// one backlog interval per job (of a fast-forwarded span, one cycle's worth:
// ff.go). The jobs themselves can be recycled the
// moment they are recorded, so a run's live memory is O(in-flight jobs)
// instead of O(all jobs ever released).
//
// Bit-identity with EvaluateSLO is a hard invariant (the repository's
// sim-determinism rule: no order-sensitive float accumulation may change).
// EvaluateSLO walks a retained job list in release order, so its
// response-time mean sums floats in release order and its quantiles sort
// that same multiset. The collector pins the identical order by assigning
// every in-window released job a slot (Job.MetricsSlot) at release time and
// writing the response time into that slot at completion time: completions
// may arrive in any order, but Summary folds the slots back in release
// order. Unfilled slots (jobs that never finished) hold NaN and are skipped,
// exactly as EvaluateSLO skips jobs with Done unset. The admission-backlog
// profile is likewise order-independent: every released job gets an
// interval record (Job.BacklogSlot) whose endpoints match what EvaluateSLO
// reads off retained jobs, and queueDepth derives the depth statistics from
// the interval multiset alone. It reads that multiset in ascending order,
// which the collector has without sorting: releases arrive in time order,
// and every completion or discard instant is logged in event order, which
// the monotone engine clock keeps ascending. TestCollectorMatchesEvaluate and
// the sim streaming-equivalence tests pin all of this.
//
// Missed-job accounting needs no deadline timers: one tally per subset of
// the in-window releases — the whole window, the releases inside an
// SM-degradation window, those while a fleet device was down — derives its
// misses at Summary time (see tally).
type Collector struct {
	warmUp, horizon des.Time
	sloMS           float64

	window    tally // in-window released jobs (deadline decidable)
	completed int   // finishes inside the window, released or not
	dropped   int   // in-window released jobs discarded

	// resp holds one response-time slot per in-window released job, in
	// release order; NaN marks a job that has not (yet) finished.
	resp []float64
	// starts and ends hold one backlog interval per released job (all of
	// them, unlike resp), in release order: the release instant paired
	// with the completion/discard instant, des.Never while pending.
	starts, ends []des.Time
	// endLog holds every completion/discard instant in the order the
	// events arrived — ascending whenever they arrive in time order, as
	// they do from the engine — so queueDepth can sweep it unsorted.
	endLog []des.Time
	// depthSorts counts the queueDepth inputs Summary found out of order
	// and had to sort (SortFallbacks).
	depthSorts int
	// scratch and sortBuf are Summary's reused buffers: the release-order
	// compaction (mean summation order) and its sorted copies (quantiles).
	scratch []float64
	sortBuf summaryBuf

	// Degraded attribution: mark holds the degradations in force — the
	// fault injector toggles markSM at each SM-degradation window edge
	// (DESIGN.md §13), the cluster dispatcher markFleet while at least one
	// device is down (§15) — and every in-window released job records it
	// in marks, parallel to resp, so its completion counts toward the
	// tallies of the subsets it was released into.
	mark     uint8
	marks    []uint8
	smDeg    tally
	fleetDeg tally

	// Fast-forward measurement-cycle recording (ff.go): while recording,
	// every lifecycle call appends an op so Replay can re-apply the cycle's
	// metric writes over extrapolated cycles. slotBlk, respBlk and logBlk
	// locate the recorded cycle in starts/ends, resp and endLog; after
	// Replay each array stands for mult further copies of it, shifted by
	// multiples of period, which are never stored.
	recording                bool
	recOps                   []ffOp
	slotBlk, respBlk, logBlk block
	mult                     int
	period                   des.Time
	// replayWrites counts the slots Replay wrote (ReplayWrites).
	replayWrites int
}

// NewCollector builds a collector for the measurement window [warmUp,
// horizon). Like EvaluateSLO, a horizon at or before the warm-up panics.
func NewCollector(warmUp, horizon des.Time) *Collector {
	c := &Collector{}
	c.Reset(warmUp, horizon)
	return c
}

// Reset rearms the collector for a new run over [warmUp, horizon), retaining
// its buffers. The SLO is cleared; call SetSLO after Reset to configure one.
func (c *Collector) Reset(warmUp, horizon des.Time) {
	if horizon <= warmUp {
		panic(fmt.Sprintf("metrics: horizon %v not after warm-up %v", horizon, warmUp))
	}
	c.warmUp, c.horizon = warmUp, horizon
	c.sloMS = 0
	c.window, c.completed, c.dropped = tally{}, 0, 0
	c.resp = c.resp[:0]
	c.starts = c.starts[:0]
	c.ends = c.ends[:0]
	c.endLog = c.endLog[:0]
	c.depthSorts = 0
	c.sortBuf.sorted = 0
	c.recording = false
	c.recOps = c.recOps[:0]
	c.slotBlk, c.respBlk, c.logBlk = block{}, block{}, block{}
	c.mult, c.period, c.replayWrites = 0, 0, 0
	c.mark, c.marks = 0, c.marks[:0]
	c.smDeg, c.fleetDeg = tally{}, tally{}
}

// The degradation marks a release records.
const (
	markSM    uint8 = 1 << iota // inside an SM-degradation window
	markFleet                   // at least one fleet device down
)

// SetDegraded flips the degraded-capacity mark; the fault injector calls it
// at each SM-degradation window edge. Releases while the mark is on are
// attributed to the degraded subset of the deadline accounting.
func (c *Collector) SetDegraded(on bool) { c.setMark(markSM, on) }

// SetFleetDegraded flips the fleet-degraded mark; the cluster dispatcher
// calls it when the first device goes down and when the last one comes back.
// Releases while the mark is on are attributed to the degraded-fleet subset
// of the deadline accounting.
func (c *Collector) SetFleetDegraded(on bool) { c.setMark(markFleet, on) }

func (c *Collector) setMark(m uint8, on bool) {
	c.mark &^= m
	if on {
		c.mark |= m
	}
}

// tally is the deadline accounting of one subset of the in-window released
// jobs. Such a job has Deadline < horizon by construction, so at the
// horizon it has either completed (late or not — lateness is decided at
// completion) or missed, and
//
//	missed = late + (released − completed)
//
// equals EvaluateSLO's per-job Missed scan.
type tally struct {
	released  int // in-window released jobs of the subset
	completed int // …that finished
	late      int // …of which after their deadline
}

func (t *tally) done(late bool) {
	t.completed++
	if late {
		t.late++
	}
}

func (t tally) missed() int { return t.late + (t.released - t.completed) }

func (t tally) dmr() float64 { return ratio(t.missed(), t.released) }

// add adds k copies of u to t (a fast-forwarded span's replayed cycles).
func (t *tally) add(u tally, k int) {
	t.released += k * u.released
	t.completed += k * u.completed
	t.late += k * u.late
}

// SetSLO configures the response-time objective, milliseconds (0 = none),
// matching EvaluateSLO's parameter. Call after Reset, before the run.
func (c *Collector) SetSLO(ms float64) { c.sloMS = ms }

// JobReleased records a release. It must be called once per job, in release
// order (the workload generator's event order), before the job reaches a
// scheduler. Every job gets a backlog-interval record; in-window jobs
// additionally get a response-time slot, and jobs whose deadline window
// extends past the measurement interval are marked out-of-window.
func (c *Collector) JobReleased(j *rt.Job, now des.Time) {
	j.BacklogSlot = len(c.starts) + c.mult*c.slotBlk.n
	c.starts = append(c.starts, j.Release)
	c.ends = append(c.ends, des.Never)
	if j.Release < c.warmUp || j.Deadline >= c.horizon {
		j.MetricsSlot = -1
	} else {
		j.MetricsSlot = len(c.resp) + c.mult*c.respBlk.n
		c.window.released++
		c.resp = append(c.resp, math.NaN())
		c.marks = append(c.marks, c.mark)
		if c.mark&markSM != 0 {
			c.smDeg.released++
		}
		if c.mark&markFleet != 0 {
			c.fleetDeg.released++
		}
	}
	if c.recording {
		c.recordRelease(j)
	}
}

// JobDone implements rt.JobWatcher: it records a completion. Completions
// inside the window count toward FPS whether or not the job was released
// inside it (the device was busy with it either way); response times are
// recorded for in-window released jobs only, into their release-order slot.
func (c *Collector) JobDone(j *rt.Job, now des.Time) {
	if j.BacklogSlot >= 0 {
		c.ends[c.slotBlk.phys(j.BacklogSlot, c.mult)] = now
		c.endLog = append(c.endLog, now)
	}
	inWin := now >= c.warmUp && now < c.horizon
	if inWin {
		c.completed++
	}
	if j.MetricsSlot >= 0 {
		late := now > j.Deadline
		c.window.done(late)
		c.resp[c.respBlk.phys(j.MetricsSlot, c.mult)] = j.ResponseTime().Milliseconds()
		// Slots fast-forward Replay stands for have no marks entry:
		// degraded runs are FF-ineligible, so a replayed slot is never
		// marked and reading it as unmarked is exact.
		if j.MetricsSlot < len(c.marks) {
			m := c.marks[j.MetricsSlot]
			if m&markSM != 0 {
				c.smDeg.done(late)
			}
			if m&markFleet != 0 {
				c.fleetDeg.done(late)
			}
		}
	}
	if c.recording {
		c.recordDone(j, now, inWin)
	}
}

// JobDiscarded implements rt.JobWatcher. A discarded job leaves the
// backlog at the discard instant and counts as dropped when it was released
// in-window; its response slot stays unfilled, so it is counted missed at
// Summary time, exactly like a job still unfinished at the horizon.
func (c *Collector) JobDiscarded(j *rt.Job, now des.Time) {
	if j.BacklogSlot >= 0 {
		c.ends[c.slotBlk.phys(j.BacklogSlot, c.mult)] = now
		c.endLog = append(c.endLog, now)
	}
	if j.MetricsSlot >= 0 {
		c.dropped++
	}
	if c.recording {
		c.recordDiscard(j, now)
	}
}

// Summary folds the counters into the run summary. It may be called once the
// simulation has run to the horizon; calling it earlier summarises the
// prefix seen so far.
func (c *Collector) Summary() Summary {
	s := Summary{
		WarmUp:    c.warmUp,
		Horizon:   c.horizon,
		Released:  c.window.released,
		Completed: c.completed,
		Missed:    c.window.missed(),
		Dropped:   c.dropped,
		DMR:       c.window.dmr(),
	}
	s.Faults.DegradedReleased = c.smDeg.released
	s.Faults.DegradedMissed = c.smDeg.missed()
	s.Faults.DegradedDMR = c.smDeg.dmr()
	s.Fleet.FleetDegradedReleased = c.fleetDeg.released
	s.Fleet.FleetDegradedMissed = c.fleetDeg.missed()
	s.Fleet.FleetDegradedDMR = c.fleetDeg.dmr()
	// Compact the slots in release order — EvaluateSLO's iteration order —
	// and count SLO hits over the identical float comparisons. A
	// fast-forwarded span's copies repeat its block's floats and hits.
	lo, hi := c.respBlk.cut-c.respBlk.n, c.respBlk.cut
	resp, headHits := c.compact(c.scratch[:0], c.resp[:lo])
	head := len(resp)
	resp, blockHits := c.compact(resp, c.resp[lo:hi])
	view := repeated{cut: len(resp), n: len(resp) - head, mult: c.mult}
	resp, tailHits := c.compact(resp, c.resp[hi:])
	c.scratch = resp
	view.all = resp
	sloHits := headHits + (1+c.mult)*blockHits + tailHits
	// Releases and ends arrive in time order from the engine; only a
	// caller delivering callbacks out of order pays for sorted copies. The
	// sweep merges a span's copies into the stored arrays, so only those
	// need to be in order.
	b := backlog{
		starts: c.starts, ends: c.ends, byStart: c.starts, byEnd: c.endLog,
		cut: c.slotBlk.cut, n: c.slotBlk.n, mult: c.mult, period: c.period,
	}
	if !slices.IsSorted(b.byStart) {
		b.byStart = slices.Sorted(slices.Values(b.byStart))
		c.depthSorts++
	}
	if !slices.IsSorted(b.byEnd) {
		b.byEnd = slices.Sorted(slices.Values(b.byEnd))
		c.depthSorts++
	}
	if c.mult > 0 {
		b.blockStarts = blockInstants(c.starts, c.slotBlk)
		b.blockEnds = blockInstants(c.endLog, c.logBlk)
	}
	s.finish(view, &c.sortBuf, b, c.sloMS, sloHits)
	return s
}

// compact appends the filled (non-NaN) slots of resp to dst and counts those
// within the SLO.
func (c *Collector) compact(dst, resp []float64) ([]float64, int) {
	hits := 0
	for _, r := range resp {
		if !math.IsNaN(r) {
			dst = append(dst, r)
			if c.sloMS > 0 && r <= c.sloMS {
				hits++
			}
		}
	}
	return dst, hits
}

// blockInstants returns the instants of xs's recorded block in ascending
// order: the block itself, unless callbacks came out of time order and
// Summary is already on its sort fallback.
func blockInstants(xs []des.Time, b block) []des.Time {
	blk := xs[b.cut-b.n : b.cut]
	if slices.IsSorted(blk) {
		return blk
	}
	return slices.Sorted(slices.Values(blk))
}

// SortFallbacks reports how many queue-depth inputs — the release or the end
// instants — Summary has found out of time order since Reset and sorted in a
// copy. Runs driven by the engine deliver both in order, so it stays 0.
func (c *Collector) SortFallbacks() int { return c.depthSorts }

// SortedResponses reports how many response times Summary has sorted since
// Reset: the compacted slots, plus a fast-forwarded span's block once.
func (c *Collector) SortedResponses() int { return c.sortBuf.sorted }
