package exp

import (
	"context"

	"sgprs/internal/metrics"
	"sgprs/internal/runner"
	"sgprs/internal/sim"
)

// ResultSet is an executed experiment: the full per-job outcomes in
// submission order plus the folding metadata (expanded labels, task axis)
// needed to read them back as figure series.
type ResultSet struct {
	Spec *Spec
	// Order lists the expanded variant labels in submission order.
	Order []string
	// TaskCounts is the shared task axis.
	TaskCounts []int
	// Results holds one entry per compiled job, in job order, each with
	// the full sim.Result (metrics summary, utilization, energy) or an
	// attributed error.
	Results []runner.JobResult
}

// Run compiles and executes a spec on the runner's worker pool. Results
// stream through opt.Progress as jobs finish; a cancelled ctx stops
// dispatching new jobs, drains in-flight ones, and attributes the skipped
// jobs' errors to the context. Run returns the completed results alongside
// any aggregate error (runner.Errors), never instead of them; only a compile
// error yields a nil ResultSet.
func Run(ctx context.Context, spec *Spec, opt runner.Options) (*ResultSet, error) {
	c, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	results := runner.Run(ctx, c.Jobs, opt)
	rs := &ResultSet{Spec: spec, Order: c.Order, TaskCounts: c.TaskCounts, Results: results}
	return rs, rs.Err()
}

// Err collects the failed jobs into a runner.Errors value, or nil.
func (r *ResultSet) Err() error { return runner.Err(r.Results) }

// Series folds the completed results into per-label figure series keyed by
// expanded variant label. Every label in Order has an entry; failed jobs
// leave gaps rather than zero points.
func (r *ResultSet) Series() map[string][]metrics.Point {
	series := make(map[string][]metrics.Point, len(r.Order))
	for _, label := range r.Order {
		series[label] = []metrics.Point{}
	}
	for _, res := range r.Results {
		if res.Err != nil {
			continue
		}
		series[res.Job.Variant] = append(series[res.Job.Variant], metrics.Point{
			Tasks:       res.Job.Tasks,
			Summary:     res.Result.Summary,
			FastForward: res.Result.FastForward,
		})
	}
	return series
}

// Series builds a one-variant spec: base swept across the task counts.
func Series(base sim.RunConfig, taskCounts []int) *Spec {
	return &Spec{
		Name:     "series",
		Variants: []sim.RunConfig{base},
		Axes:     []Axis{Tasks(taskCounts...)},
	}
}

// Grid builds a spec sweeping several variants over the same task counts as
// one flat fan-out.
func Grid(bases []sim.RunConfig, taskCounts []int) *Spec {
	return &Spec{
		Name:     "grid",
		Variants: append([]sim.RunConfig(nil), bases...),
		Axes:     []Axis{Tasks(taskCounts...)},
	}
}
