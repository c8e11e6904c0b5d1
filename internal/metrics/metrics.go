// Package metrics computes the paper's evaluation metrics from completed
// simulation runs: total FPS, deadline miss rate (DMR), response-time
// statistics, and the pivot point of a task-count sweep.
package metrics

import (
	"fmt"
	"slices"

	"sgprs/internal/des"
	"sgprs/internal/rt"
	"sgprs/internal/stats"
)

// Summary is the measured outcome of one simulation run.
type Summary struct {
	// Window is the measurement interval (warm-up excluded).
	WarmUp, Horizon des.Time

	// Released counts jobs released inside the window whose deadline also
	// falls inside it (so "missed" is decidable for each of them).
	Released int
	// Completed counts inferences finished inside the window, late or
	// not — the paper's total-FPS numerator.
	Completed int
	// Missed counts released jobs that finished after their deadline or
	// did not finish at all.
	Missed int
	// Dropped counts released jobs the scheduler permanently abandoned
	// (bounded-admission drops and frame replacements) — a subset of
	// Missed, and the open-loop overload signal.
	Dropped int

	// TotalFPS is Completed per second of window.
	TotalFPS float64
	// DMR is Missed/Released in [0,1].
	DMR float64
	// DropRate is Dropped/Released in [0,1].
	DropRate float64

	// Response-time statistics over completed released jobs, milliseconds.
	RespMeanMS, RespP50MS, RespP99MS, RespMaxMS float64
	// RespP999MS extends the tail for open-loop studies, where the p99.9
	// separates schedulers the p99 no longer does.
	RespP999MS float64

	// QueueDepthMax and QueueDepthMean describe the admission backlog —
	// jobs released but not yet completed or discarded — as its maximum
	// and time-weighted mean over the window. Under closed-loop periodic
	// load the backlog is bounded by the in-flight frames; under open-loop
	// overload it is the queue the bounded-admission scheduler is holding
	// back.
	QueueDepthMax  int
	QueueDepthMean float64

	// SLOMS echoes the configured response-time objective, milliseconds
	// (0 = none); SLOHitRate is the fraction of released jobs that
	// completed within it.
	SLOMS      float64
	SLOHitRate float64

	// Faults is the fault-injection accounting (DESIGN.md §13): all-zero
	// unless the run configured sim.RunConfig.Faults. The batch EvaluateSLO
	// reference never fills it — fault injection is a streaming-only feature —
	// so the streaming-equivalence invariant is untouched.
	Faults FaultStats

	// Fleet is the multi-device dispatcher accounting (DESIGN.md §15):
	// all-zero unless the run configured sim.RunConfig.Devices > 1. A fleet
	// of one leaves it zero, so one-GPU summaries — and their DeepEqual
	// pins — match the single-device simulator's.
	Fleet FleetStats
}

// FleetStats aggregates what the cluster layer did to a run: the dispatcher
// fills the placement/failover counters, the collector the fleet-degraded
// deadline accounting (releases while at least one device was down).
type FleetStats struct {
	// Devices is the fleet size (0 for a fleet of one).
	Devices int
	// PerDeviceUtilization is each device's busy-SM utilization over the
	// run, indexed by fleet position.
	PerDeviceUtilization []float64
	// Crashes and Restarts count device-level failure events; a permanent
	// loss is a crash with no matching restart.
	Crashes  int
	Restarts int
	// Migrations counts chains re-placed onto a surviving device, and
	// MigrationCostMS the total re-staging cost they paid.
	Migrations      int
	MigrationCostMS float64
	// ShedChains counts chains permanently dropped by failover or the
	// admission controller; ShedReleases counts individual releases
	// discarded while their chain was shed, blacked out, or unadmitted.
	ShedChains   int
	ShedReleases int
	// FailoverLatencyMeanMS is the mean blackout a failed-over chain
	// experienced (migration cost, or restart wait plus backoff).
	FailoverLatencyMeanMS float64
	// FleetDegradedReleased counts in-window released jobs that arrived
	// while at least one device was down; FleetDegradedMissed and
	// FleetDegradedDMR judge deadline misses over exactly that subset.
	FleetDegradedReleased int
	FleetDegradedMissed   int
	FleetDegradedDMR      float64
}

// FaultStats aggregates what the fault-injection layer did to a run: the
// injector fills the injection counters, the collector the degraded-window
// deadline accounting.
type FaultStats struct {
	// Overruns counts kernels whose work was inflated; OverrunMassMS is
	// the extra single-SM milliseconds injected in total.
	Overruns      int
	OverrunMassMS float64
	// TransientFaults counts kernels aborted mid-flight; Retries,
	// SkippedJobs, and KilledChains partition the recovery decisions, and
	// Recoveries counts jobs completing despite at least one retry.
	TransientFaults int
	Retries         int
	Recoveries      int
	SkippedJobs     int
	KilledChains    int
	// DegradedReleased counts in-window released jobs that arrived inside
	// an SM-degradation window; DegradedMissed and DegradedDMR judge
	// deadline misses over exactly that subset — the degraded-time DMR.
	DegradedReleased int
	DegradedMissed   int
	DegradedDMR      float64
}

// String renders a one-line summary.
func (s Summary) String() string {
	return fmt.Sprintf("fps=%.1f dmr=%.4f released=%d completed=%d missed=%d resp(mean=%.2fms p99=%.2fms)",
		s.TotalFPS, s.DMR, s.Released, s.Completed, s.Missed, s.RespMeanMS, s.RespP99MS)
}

// EvaluateSLO computes the run summary over [warmUp, horizon) from retained
// jobs, with a response-time service-level objective in milliseconds (0 =
// none): Summary.SLOHitRate reports the fraction of released jobs
// completing within it. Jobs released during warm-up still count toward FPS
// if they complete inside the window (the device was busy with them), but
// DMR is judged only on jobs whose entire deadline window lies inside the
// measurement interval. This is the batch reference the streaming Collector
// is pinned bit-identical to; production runs use the Collector.
func EvaluateSLO(jobs []*rt.Job, warmUp, horizon des.Time, sloMS float64) Summary {
	if horizon <= warmUp {
		panic(fmt.Sprintf("metrics: horizon %v not after warm-up %v", horizon, warmUp))
	}
	s := Summary{WarmUp: warmUp, Horizon: horizon}
	var resp []float64
	starts := make([]des.Time, 0, len(jobs))
	ends := make([]des.Time, 0, len(jobs))
	sloHits := 0
	for _, j := range jobs {
		starts = append(starts, j.Release)
		ends = append(ends, jobEnd(j))
		if j.Done && j.FinishedAt >= warmUp && j.FinishedAt < horizon {
			s.Completed++
		}
		if j.Release < warmUp || j.Deadline >= horizon {
			continue
		}
		s.Released++
		if j.Missed(horizon) {
			s.Missed++
		}
		if j.Discarded {
			s.Dropped++
		}
		if j.Done {
			r := j.ResponseTime().Milliseconds()
			resp = append(resp, r)
			if sloMS > 0 && r <= sloMS {
				sloHits++
			}
		}
	}
	b := backlog{
		starts:  starts,
		ends:    ends,
		byStart: slices.Sorted(slices.Values(starts)),
		byEnd:   slices.Sorted(slices.Values(ends)),
	}
	s.DMR = ratio(s.Missed, s.Released)
	s.finish(repeated{all: resp}, &summaryBuf{}, b, sloMS, sloHits)
	return s
}

// repeated is a logical sequence of response times stored compactly:
// all[:cut], then mult further copies of the block all[cut-n:cut], then
// all[cut:]. A collector holding a fast-forwarded span (ff.go) hands finish
// this view instead of the copies; every other caller passes mult 0, where
// the view is all itself.
type repeated struct {
	all          []float64
	cut, n, mult int
}

func (r repeated) block() []float64 { return r.all[r.cut-r.n : r.cut] }

// summaryBuf holds finish's sorted response times, reused across
// Collector.Summary calls, and counts the response times it has sorted.
type summaryBuf struct {
	rest, block []float64
	sorted      int
}

// sortedCopy returns xs sorted, in dst's storage.
func (buf *summaryBuf) sortedCopy(dst *[]float64, xs []float64) []float64 {
	*dst = append((*dst)[:0], xs...)
	slices.Sort(*dst)
	buf.sorted += len(xs)
	return *dst
}

// backlog is the input of the admission-backlog profile. starts[i] and
// ends[i] are job i's interval (des.Never while pending); byStart and byEnd
// hold the same start and end instants in ascending order — byEnd may omit
// des.Never ends, which the depth sweep never reaches.
//
// A fast-forwarded span adds mult further copies of the intervals at
// [cut-n, cut) of starts and ends, the c-th shifted by c·period. The copies
// close inside the window, unclipped (Collector.Replay checks this), and
// blockStarts and blockEnds hold their start and end instants in ascending
// order, each spanning at most one period.
type backlog struct {
	starts, ends           []des.Time
	byStart, byEnd         []des.Time
	cut, n, mult           int
	blockStarts, blockEnds []des.Time
	period                 des.Time
}

// jobEnd reports the instant a job left the admission backlog: completion,
// discard, or never (still pending — clipped to the horizon by the depth
// profile). The streaming collector records exactly these instants from its
// callbacks, which is what keeps the two depth profiles identical.
func jobEnd(j *rt.Job) des.Time {
	switch {
	case j.Done:
		return j.FinishedAt
	case j.Discarded:
		return j.DiscardedAt
	default:
		return des.Never
	}
}

// finish folds the per-job accumulations into the summary's derived fields.
// Both metric paths — EvaluateSLO over retained jobs and Collector.Summary
// over streamed slots — call it with identically ordered inputs, so every
// float operation happens in the same order and the results are
// bit-identical (the house streaming-equivalence invariant).
//
// resp must be in release order; b is the backlog of all jobs, read but
// not modified; buf receives the sorted response times. A fast-forwarded
// span reaches finish as its block and multiplicity, never as copies, and
// the stats helpers read the mean and the quantiles of the expanded slots
// from that view bit for bit.
func (s *Summary) finish(resp repeated, buf *summaryBuf, b backlog, sloMS float64, sloHits int) {
	window := (s.Horizon - s.WarmUp).Seconds()
	s.TotalFPS = float64(s.Completed) / window
	s.DropRate = ratio(s.Dropped, s.Released)
	if len(resp.all) > 0 {
		s.RespMeanMS = stats.MeanRepeated(resp.all, resp.cut, resp.n, resp.mult)
		rest := buf.sortedCopy(&buf.rest, resp.all)
		var block []float64
		if resp.mult > 0 {
			block = buf.sortedCopy(&buf.block, resp.block())
		}
		s.RespP50MS = stats.QuantileSortedRepeated(rest, block, resp.mult, 0.50)
		s.RespP99MS = stats.QuantileSortedRepeated(rest, block, resp.mult, 0.99)
		s.RespP999MS = stats.QuantileSortedRepeated(rest, block, resp.mult, 0.999)
		s.RespMaxMS = stats.QuantileSortedRepeated(rest, block, resp.mult, 1.0)
	}
	integral, maxDepth := queueDepth(b, s.WarmUp, s.Horizon)
	s.QueueDepthMax = maxDepth
	s.QueueDepthMean = float64(integral) / float64(s.Horizon-s.WarmUp)
	if sloMS > 0 {
		s.SLOMS = sloMS
		s.SLOHitRate = ratio(sloHits, s.Released)
	}
}

// ratio is n/d, or 0 for an empty denominator.
func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// queueDepth computes the admission-backlog profile over [warmUp, horizon):
// the exact time-weighted integral (nanosecond·jobs, in int64) and the
// maximum instantaneous depth. A job occupies the half-open interval
// [start, end) — an end coinciding with another start never overlaps it —
// and pending jobs (end == des.Never) clip to the horizon.
//
// Both results are pure functions of the interval multiset, independent of
// the order events were observed in; that is what lets the streaming
// collector match the batch path bit for bit even though completions arrive
// out of release order. The integral reads the slot-paired intervals, the
// maximum sweeps the ascending starts and ends. A fast-forwarded span's
// copies are unclipped, so they add mult times the block's integral; the
// sweep reads them through instants, and where one copy leaves the sweep in
// the state the previous one did, the copies up to the next rest instant
// would only repeat it, so the sweep jumps past them.
func queueDepth(b backlog, warmUp, horizon des.Time) (integral int64, maxDepth int) {
	for i := range b.starts {
		s, e := b.starts[i], b.ends[i]
		if s < warmUp {
			s = warmUp
		}
		if e > horizon {
			e = horizon
		}
		if e > s {
			integral += int64(e - s)
		}
	}
	var block int64
	for i := b.cut - b.n; i < b.cut; i++ {
		block += int64(b.ends[i] - b.starts[i])
	}
	integral += int64(b.mult) * block

	starts := newInstants(b.byStart, b.blockStarts, b.mult, b.period)
	ends := newInstants(b.byEnd, b.blockEnds, b.mult, b.period)
	// Sweep the starts in time order, popping ends that precede them; the
	// depth right after each start inside the window is a candidate
	// maximum, as is the depth at warmUp itself (jobs can straddle it).
	depth := 0
	warm := false
	var prev sweepState
	seen := false
	for {
		s := starts.peek()
		if s >= horizon {
			break
		}
		if !warm && s >= warmUp {
			for ends.peek() <= warmUp {
				depth--
				ends.next()
			}
			if depth > maxDepth {
				maxDepth = depth
			}
			warm = true
		}
		for ends.peek() <= s {
			depth--
			ends.next()
		}
		depth++
		if warm && depth > maxDepth {
			maxDepth = depth
		}
		if starts.next() && warm {
			st := sweepState{depth, starts.i, ends.i, ends.c - starts.c, ends.j}
			if seen && st == prev {
				skipCopies(&starts, &ends, horizon)
			}
			prev, seen = st, true
		}
	}
	if !warm {
		// No start inside the window: the only candidate is the depth
		// carried across warmUp by straddling jobs.
		for ends.peek() <= warmUp {
			depth--
			ends.next()
		}
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	return integral, maxDepth
}

// sweepState is the depth sweep's state at the end of a copy of the starts
// block: the depth, both rest positions, and the ends' copy position
// relative to the starts'. Two consecutive copies ending in equal states
// were swept identically, one period apart.
type sweepState struct {
	depth, startRest, endRest, endCopy, endAt int
}

// skipCopies advances both sweeps past the copies of the starts block that
// would repeat the one just swept. Copy c+1 is swept like copy c shifted by
// a period as long as its starts and the ends it reads, up to the one that
// stops the last pop, are copies that precede every rest instant still
// unread, and its starts lie before the horizon; the depth after it is the
// same, and so is the maximum. The sweep states agree, so every copy after
// the one just ended is skipped while that holds.
func skipCopies(starts, ends *instants, horizon des.Time) {
	if ends.c > ends.mult {
		return
	}
	d := int64(starts.period)
	last := int64(starts.block[len(starts.block)-1])
	// Copy c of the starts block (ended: c = starts.c-1) may be skipped
	// while it ends before bound, and the end the sweep stops at after it
	// — copy ends.c+k at ends.j — precedes the ends' next rest instant.
	done := starts.c - 1
	bound := min(int64(horizon), int64(starts.restNext()))
	k := min(starts.mult-done, int((bound-1-last)/d)-done)
	k = min(k, ends.mult-ends.c, int((int64(ends.restNext())-1-int64(ends.block[ends.j]))/d)-ends.c)
	if k > 0 {
		starts.skip(k)
		ends.skip(k)
	}
}

// instants yields, in ascending order, the merge of rest and copies 1..mult
// of block, the c-th shifted by c·period, reading des.Never once both are
// exhausted. Both slices must be ascending and block must span at most one
// period, so each copy ends at or before the next begins. Ties go to rest.
type instants struct {
	rest, block []des.Time
	i           int // next rest index
	j           int // next block index within copy c
	c, mult     int // copy c of 1..mult; c > mult once the copies are read
	period      des.Time
	shift       des.Time // c·period
}

func newInstants(rest, block []des.Time, mult int, period des.Time) instants {
	it := instants{rest: rest, block: block, c: 1, mult: mult, period: period, shift: period}
	if len(block) == 0 {
		it.c = mult + 1
	}
	return it
}

func (it *instants) restNext() des.Time {
	if it.i == len(it.rest) {
		return des.Never
	}
	return it.rest[it.i]
}

func (it *instants) copyNext() des.Time {
	if it.c > it.mult {
		return des.Never
	}
	return it.block[it.j] + it.shift
}

func (it *instants) peek() des.Time { return min(it.restNext(), it.copyNext()) }

// next consumes the next instant and reports whether it ended a copy.
func (it *instants) next() bool {
	if it.i < len(it.rest) && it.rest[it.i] <= it.copyNext() {
		it.i++
		return false
	}
	it.j++
	if it.j < len(it.block) {
		return false
	}
	it.skip(1)
	it.j = 0
	return true
}

// skip moves k copies on, keeping the position within the copy.
func (it *instants) skip(k int) {
	it.c += k
	it.shift += des.Time(int64(k) * int64(it.period))
}

// Point is one sweep sample: a task count and its run summary.
type Point struct {
	Tasks   int
	Summary Summary
	// FastForward reports the steady-state fast-forward layer's activity
	// for this point (all-zero when it never engaged).
	FastForward FFStats
}

// PivotPoint reports the paper's pivot: the largest task count that the
// scheduler handles without a single deadline miss, scanning the sweep in
// ascending task order and stopping at the first miss. Zero means even one
// task misses.
func PivotPoint(series []Point) int {
	pivot := 0
	for _, p := range series {
		if p.Summary.Missed > 0 {
			break
		}
		pivot = p.Tasks
	}
	return pivot
}

// SaturationFPS reports the maximum total FPS reached anywhere in the sweep.
func SaturationFPS(series []Point) float64 {
	var best float64
	for _, p := range series {
		if p.Summary.TotalFPS > best {
			best = p.Summary.TotalFPS
		}
	}
	return best
}

// FinalFPS reports the FPS at the largest task count of the sweep — the
// paper's "drops to 468 fps" style endpoint.
func FinalFPS(series []Point) float64 {
	if len(series) == 0 {
		return 0
	}
	return series[len(series)-1].Summary.TotalFPS
}
