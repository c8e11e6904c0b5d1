// Package runner is the parallel experiment driver: it fans independent
// simulation runs out across a bounded worker pool and aggregates ordered
// results with per-job error attribution.
//
// Every figure-regenerating sweep in this repository is a grid of mutually
// independent sim.Run calls (variant × task count), so the fan-out is
// embarrassingly parallel. The job lists come from exp.Spec.Compile, which
// fixes each job's seed at expansion time as a pure function of its identity
// (base seed, variant, task count), never of worker scheduling. Results are
// therefore bit-identical across worker counts: output with any Jobs setting
// equals a one-worker run, and the golden digests in internal/exp pin both
// (see DESIGN.md §5-§6).
//
// A failed job never cancels or discards its siblings: Run always returns
// one JobResult per Job, and Err collects the failures — with their sweep
// coordinates — into a single Errors value.
//
// Cancellation is cooperative and job-grained: when the context passed to
// Run is cancelled the pool stops dispatching new jobs, drains the runs
// already in flight (a discrete-event run is not interruptible midway), and
// attributes every undispatched job's error to the context. Completed
// results are always returned; errors.Is(Err(results), context.Canceled)
// reports the cancellation.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"

	"sgprs/internal/memo"
	"sgprs/internal/sim"
)

// Job is one unit of work: a fully specified simulation run plus the sweep
// coordinates it is attributed to in results and errors.
type Job struct {
	// Variant names the series the job belongs to (e.g. "sgprs-1.5x").
	Variant string
	// Tasks is the job's sweep coordinate (task count).
	Tasks int
	// Config is the run to execute. Jobs must not share a mutable
	// Observer: observers attached here are invoked concurrently from
	// pool workers.
	Config sim.RunConfig
}

// JobResult pairs a job with its outcome. Exactly one of Result/Err is
// meaningful: Err non-nil means the run failed.
type JobResult struct {
	Job Job
	// Index is the job's position in the submitted slice; Run returns
	// results sorted by it regardless of completion order.
	Index  int
	Result sim.Result
	Err    error
}

// JobError attributes one failed run to its sweep coordinates.
type JobError struct {
	Variant string
	Tasks   int
	Err     error
}

// Error formats the failure with its coordinates.
func (e JobError) Error() string {
	return fmt.Sprintf("%s n=%d: %v", e.Variant, e.Tasks, e.Err)
}

// Unwrap exposes the underlying run error.
func (e JobError) Unwrap() error { return e.Err }

// Errors aggregates every failed job of a fan-out. It is returned alongside
// the completed results, never instead of them.
type Errors []JobError

// Unwrap exposes the individual failures, so errors.Is sees through the
// aggregate — a cancelled sweep satisfies errors.Is(err, context.Canceled).
func (es Errors) Unwrap() []error {
	out := make([]error, len(es))
	for i, e := range es {
		out[i] = e
	}
	return out
}

// Error lists every failure, one per line.
func (es Errors) Error() string {
	if len(es) == 1 {
		return "runner: 1 job failed: " + es[0].Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "runner: %d jobs failed:", len(es))
	for _, e := range es {
		b.WriteString("\n  ")
		b.WriteString(e.Error())
	}
	return b.String()
}

// Progress streams per-job results as the pool finalizes them. Calls are
// serialized by the pool; done is the number of finalized jobs so far
// (monotonic, ends at total even when the context is cancelled — skipped
// jobs stream through with their ctx-attributed error). Completion order is
// scheduling-dependent — use r.Index for identity.
type Progress func(done, total int, r JobResult)

// Options configures a fan-out.
type Options struct {
	// Jobs is the worker count. Zero or negative means one worker per
	// available CPU (runtime.GOMAXPROCS(0)). The worker count never
	// affects results, only wall-clock time.
	Jobs int
	// Progress, when non-nil, is invoked after every job is finalized —
	// the streaming per-job result callback.
	Progress Progress
	// Cache is the offline-phase cache shared by the pool's workers; nil
	// means the process-wide memo.Default(). The cache's per-key
	// singleflight ensures each distinct (graph, task shape) is profiled
	// by exactly one worker while the others proceed. Cache hits never
	// change results (memo's package comment has the argument; tests in
	// internal/sim pin it).
	Cache *memo.Cache
}

// cache resolves the effective offline cache for a fan-out.
func (o Options) cache() *memo.Cache {
	if o.Cache != nil {
		return o.Cache
	}
	return memo.Default()
}

func (o Options) workers(jobs int) int {
	w := o.Jobs
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes every job on the worker pool and returns results in job
// order. It never returns early: a failing job records its error and the
// pool keeps draining, so completed siblings are always present. Collect
// failures with Err.
//
// A cancelled ctx stops the dispatch of new jobs; runs already in flight
// drain to completion (their results are kept), and every job not yet
// dispatched is finalized with a JobError wrapping ctx.Err(). A nil ctx is
// treated as context.Background().
func Run(ctx context.Context, jobs []Job, opt Options) []JobResult {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]JobResult, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	var (
		next int64 = -1
		done int
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	total := len(jobs)
	cache := opt.cache()
	for w := opt.workers(total); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one long-lived run session: engine,
			// device, job pool, and task structures are reused across
			// every job the worker drains. Session reuse is
			// bit-identical to fresh runs (sim's session-equivalence
			// tests pin it), so this changes wall-clock and
			// allocation, never results.
			sess := sim.NewSession(cache)
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= total {
					return
				}
				r := JobResult{Job: jobs[i], Index: i}
				// The ctx check sits between claim and run: a job
				// claimed after cancellation is finalized with the
				// context's error instead of executing, while runs
				// already past this point drain to completion.
				if cerr := ctx.Err(); cerr != nil {
					r.Err = JobError{Variant: jobs[i].Variant, Tasks: jobs[i].Tasks, Err: cerr}
				} else if res, ok, err := runJob(sess, jobs[i].Config); err != nil {
					r.Err = JobError{Variant: jobs[i].Variant, Tasks: jobs[i].Tasks, Err: err}
					if !ok {
						// A panic leaves the session's engine, device,
						// and collector in unknown state; reusing it
						// could corrupt every later job on this worker.
						sess = sim.NewSession(cache)
					}
				} else {
					r.Result = res
				}
				results[i] = r
				if opt.Progress != nil {
					mu.Lock()
					done++
					opt.Progress(done, total, r)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// runJob executes one job on the worker's session, converting a panic
// anywhere inside the simulation (a buggy observer, a scheduler invariant
// violation) into an ordinary per-job error carrying the stack — one bad job
// must not tear down the pool or lose its finished siblings. The ok result
// reports whether the session survived: false after a panic, telling the
// caller to discard it.
func runJob(sess *sim.Session, cfg sim.RunConfig) (res sim.Result, ok bool, err error) {
	ok = true
	defer func() {
		if p := recover(); p != nil {
			ok = false
			err = fmt.Errorf("runner: run panicked: %v\n%s", p, debug.Stack())
		}
	}()
	res, err = sess.Run(cfg)
	return res, ok, err
}

// Err collects the failures of a result set into an Errors value, or nil
// if every job succeeded.
func Err(results []JobResult) error {
	var es Errors
	for _, r := range results {
		if r.Err != nil {
			var je JobError
			if e, ok := r.Err.(JobError); ok {
				je = e
			} else {
				je = JobError{Variant: r.Job.Variant, Tasks: r.Job.Tasks, Err: r.Err}
			}
			es = append(es, je)
		}
	}
	if len(es) == 0 {
		return nil
	}
	return es
}
