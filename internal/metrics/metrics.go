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
	// all-zero unless the run configured sim.RunConfig.Devices > 1, so
	// single-device summaries — and their DeepEqual pins — are untouched.
	Fleet FleetStats
}

// FleetStats aggregates what the cluster layer did to a run: the dispatcher
// fills the placement/failover counters, the collector the fleet-degraded
// deadline accounting (releases while at least one device was down).
type FleetStats struct {
	// Devices is the fleet size (0 on single-device runs).
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
	s.finish(resp, nil, b, sloMS, sloHits)
	return s
}

// backlog is the input of the admission-backlog profile. starts[i] and
// ends[i] are job i's interval (des.Never while pending); byStart and byEnd
// hold the same start and end instants in ascending order — byEnd may omit
// des.Never ends, which the depth sweep never reaches.
type backlog struct {
	starts, ends   []des.Time
	byStart, byEnd []des.Time
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
// not modified. sortBuf, when non-nil, is reused for the sorted response
// copy; the (possibly grown) buffer is returned so streaming callers can
// keep it across runs.
func (s *Summary) finish(resp, sortBuf []float64, b backlog, sloMS float64, sloHits int) []float64 {
	window := (s.Horizon - s.WarmUp).Seconds()
	s.TotalFPS = float64(s.Completed) / window
	if s.Released > 0 {
		s.DMR = float64(s.Missed) / float64(s.Released)
		s.DropRate = float64(s.Dropped) / float64(s.Released)
	}
	if len(resp) > 0 {
		s.RespMeanMS = stats.Mean(resp)
		sortBuf = append(sortBuf[:0], resp...)
		slices.Sort(sortBuf)
		s.RespP50MS = stats.QuantileSorted(sortBuf, 0.50)
		s.RespP99MS = stats.QuantileSorted(sortBuf, 0.99)
		s.RespP999MS = stats.QuantileSorted(sortBuf, 0.999)
		s.RespMaxMS = stats.QuantileSorted(sortBuf, 1.0)
	}
	integral, maxDepth := queueDepth(b, s.WarmUp, s.Horizon)
	s.QueueDepthMax = maxDepth
	s.QueueDepthMean = float64(integral) / float64(s.Horizon-s.WarmUp)
	if sloMS > 0 {
		s.SLOMS = sloMS
		if s.Released > 0 {
			s.SLOHitRate = float64(sloHits) / float64(s.Released)
		}
	}
	return sortBuf
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
// maximum sweeps the ascending byStart and byEnd.
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
	starts, ends := b.byStart, b.byEnd
	// Sweep the starts in time order, popping ends that precede them; the
	// depth right after each start inside the window is a candidate
	// maximum, as is the depth at warmUp itself (jobs can straddle it).
	depth, j := 0, 0
	warm := false
	for i := 0; i < len(starts) && starts[i] < horizon; i++ {
		s := starts[i]
		if !warm && s >= warmUp {
			for j < len(ends) && ends[j] <= warmUp {
				depth--
				j++
			}
			if depth > maxDepth {
				maxDepth = depth
			}
			warm = true
		}
		for j < len(ends) && ends[j] <= s {
			depth--
			j++
		}
		depth++
		if warm && depth > maxDepth {
			maxDepth = depth
		}
	}
	if !warm {
		// No start inside the window: the only candidate is the depth
		// carried across warmUp by straddling jobs.
		for j < len(ends) && ends[j] <= warmUp {
			depth--
			j++
		}
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	return integral, maxDepth
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
