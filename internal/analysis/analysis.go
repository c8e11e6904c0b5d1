// Package analysis provides offline schedulability analysis for the SGPRS
// task and device model: utilisation and work-rate accounting, an
// EDF-style demand-bound test against the device's aggregate service
// capacity, and closed-form predictions of the pivot point and saturated
// throughput that the simulator can be checked against.
//
// The analysis views the GPU the way the timing model does (DESIGN.md §4):
// a fluid resource that retires at most G single-SM milliseconds of work per
// millisecond of wall time (the aggregate gain cap), shared by every running
// stage. That abstraction is deliberately coarser than the simulator — it
// ignores stream slots, assignment policy, and contention jitter — which is
// what makes it an *analysis*: a necessary-condition bound that the measured
// system can approach but never beat.
package analysis

import (
	"fmt"
	"sort"

	"sgprs/internal/des"
	"sgprs/internal/gpu"
	"sgprs/internal/rt"
)

// TaskLoad is the analysable abstraction of one periodic task.
type TaskLoad struct {
	Name string
	// WorkMS is the job's total single-SM work in milliseconds.
	WorkMS float64
	// Period and Deadline are the task's timing parameters.
	Period   des.Time
	Deadline des.Time
	// WCET is the profiled worst-case execution time (isolation).
	WCET des.Time
}

// FromTask extracts the analysable load of a profiled rt.Task.
func FromTask(t *rt.Task) (TaskLoad, error) {
	if !t.Profiled() {
		return TaskLoad{}, fmt.Errorf("analysis: task %s not profiled", t)
	}
	return TaskLoad{
		Name:     t.Name,
		WorkMS:   t.Graph.TotalWorkMS(),
		Period:   t.Period,
		Deadline: t.Deadline,
		WCET:     t.WCET(),
	}, nil
}

// Utilization reports the classical Σ Cᵢ/Tᵢ over profiled WCETs. Values
// above the pool's parallelism indicate certain overload of the *isolated*
// service rate; the work-rate test below is the sharper device-level bound.
func Utilization(loads []TaskLoad) float64 {
	var u float64
	for _, l := range loads {
		u += float64(l.WCET) / float64(l.Period)
	}
	return u
}

// WorkRate reports the task set's demanded service rate in single-SM
// milliseconds per millisecond: Σ Wᵢ/Tᵢ.
func WorkRate(loads []TaskLoad) float64 {
	var r float64
	for _, l := range loads {
		r += l.WorkMS / l.Period.Milliseconds()
	}
	return r
}

// CapacityMargin reports capacity − demand for the device: positive values
// mean the fluid model has headroom; negative values mean certain overload
// (a necessary schedulability condition — no scheduler can beat it).
func CapacityMargin(loads []TaskLoad, dev gpu.Config) float64 {
	return dev.AggregateGainCap - WorkRate(loads)
}

// dbf is the EDF demand-bound function of one sporadic task at horizon t:
// the single-SM work of every job that both arrives and has its deadline
// within an interval of length t.
func dbf(l TaskLoad, t des.Time) float64 {
	if t < l.Deadline {
		return 0
	}
	n := int64((t-l.Deadline)/l.Period) + 1
	return float64(n) * l.WorkMS
}

// EDFFeasible runs the processor-demand test against the fluid device:
// for every absolute deadline t up to the test horizon, the accumulated
// demand Σ dbfᵢ(t) must not exceed the supply G·t. It returns the first
// violating instant (and false), or (0, true) when the set passes.
//
// The test horizon is the standard bounded one: the first busy-period
// estimate or the hyperperiod cap, whichever is smaller; for the identical
// task sets the paper evaluates, a handful of deadlines decide the answer.
func EDFFeasible(loads []TaskLoad, dev gpu.Config) (des.Time, bool) {
	if len(loads) == 0 {
		return 0, true
	}
	g := dev.AggregateGainCap
	if WorkRate(loads) > g {
		// Unbounded backlog: report the first deadline as a witness.
		first := loads[0].Deadline
		for _, l := range loads {
			if l.Deadline < first {
				first = l.Deadline
			}
		}
		return first, false
	}
	// Candidate instants: deadlines dᵢ + k·Tᵢ up to the horizon.
	horizon := testHorizon(loads, g)
	var points []des.Time
	for _, l := range loads {
		for t := l.Deadline; t <= horizon; t = t.Add(l.Period) {
			points = append(points, t)
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	for _, t := range points {
		var demand float64
		for _, l := range loads {
			demand += dbf(l, t)
		}
		if demand > float64(g*t.Milliseconds())+1e-9 {
			return t, false
		}
	}
	return 0, true
}

// testHorizon bounds the processor-demand test: the classical
// L = Σ(Tᵢ−Dᵢ)·Wᵢ/Tᵢ / (G − ΣWᵢ/Tᵢ) busy-period bound, clamped to at least
// one maximal period and at most 1000 periods (identical-task sets decide
// in one).
func testHorizon(loads []TaskLoad, g float64) des.Time {
	rate := WorkRate(loads)
	var num float64
	var maxPeriod des.Time
	for _, l := range loads {
		num += (l.Period.Milliseconds() - l.Deadline.Milliseconds()) * l.WorkMS / l.Period.Milliseconds()
		if l.Period > maxPeriod {
			maxPeriod = l.Period
		}
	}
	lo := maxPeriod
	if g <= rate {
		return lo
	}
	L := des.FromMillis(num / (g - rate))
	if L < lo {
		L = lo
	}
	hi := des.Time(int64(maxPeriod) * 1000)
	if L > hi {
		L = hi
	}
	return L
}

// PredictPivot reports the analytic pivot point for n identical tasks of the
// given load: the largest n with n·W/T ≤ G, i.e. ⌊G·T/W⌋. This is the fluid
// ceiling the simulator's measured pivot approaches from below.
func PredictPivot(l TaskLoad, dev gpu.Config) int {
	if l.WorkMS <= 0 {
		return 0
	}
	return int(dev.AggregateGainCap * l.Period.Milliseconds() / l.WorkMS)
}

// PredictSaturationFPS reports the fluid throughput ceiling for identical
// tasks: G/W jobs per millisecond.
func PredictSaturationFPS(l TaskLoad, dev gpu.Config) float64 {
	if l.WorkMS <= 0 {
		return 0
	}
	return 1000 * dev.AggregateGainCap / l.WorkMS
}

// ResponseEstimate predicts steady-state pipeline latency for k admitted
// frames of the given load under processor sharing (Little's law on the
// fluid device): R ≈ k·W/G.
func ResponseEstimate(l TaskLoad, dev gpu.Config, inflight int) des.Time {
	if dev.AggregateGainCap <= 0 {
		return des.Never
	}
	return des.FromMillis(float64(inflight) * l.WorkMS / dev.AggregateGainCap)
}

// Report is a human-readable schedulability summary.
type Report struct {
	Tasks          int
	Utilization    float64
	WorkRate       float64
	Capacity       float64
	Margin         float64
	Feasible       bool
	FirstViolation des.Time
}

// Analyze produces the full report for a task set on a device.
func Analyze(loads []TaskLoad, dev gpu.Config) Report {
	viol, ok := EDFFeasible(loads, dev)
	return Report{
		Tasks:          len(loads),
		Utilization:    Utilization(loads),
		WorkRate:       WorkRate(loads),
		Capacity:       dev.AggregateGainCap,
		Margin:         CapacityMargin(loads, dev),
		Feasible:       ok,
		FirstViolation: viol,
	}
}

// String renders the report.
func (r Report) String() string {
	verdict := "FEASIBLE (fluid EDF demand test)"
	if !r.Feasible {
		verdict = fmt.Sprintf("INFEASIBLE (first violation at %v)", r.FirstViolation)
	}
	return fmt.Sprintf(
		"tasks=%d utilization=%.3f work-rate=%.2f ssm-ms/ms capacity=%.2f margin=%.2f → %s",
		r.Tasks, r.Utilization, r.WorkRate, r.Capacity, r.Margin, verdict)
}
