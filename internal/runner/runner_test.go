package runner

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"sgprs/internal/memo"
	"sgprs/internal/sim"
)

// testCounts and testHorizon keep the determinism sweeps fast: the light
// half of the ramp at a 2-second horizon still exercises every variant.
var testCounts = []int{2, 4}

const testHorizon = 2

func testBase(name string) sim.RunConfig {
	return sim.RunConfig{
		Kind:       sim.KindSGPRS,
		Name:       name,
		ContextSMs: sim.ContextPool(2, 1.5, 68),
		NumTasks:   1,
		HorizonSec: testHorizon,
		Seed:       1,
	}
}

// sweepJobs expands one base configuration over the task counts into a job
// list, every job keeping the base seed — the shape exp.Spec.Compile emits
// for a one-variant task sweep.
func sweepJobs(base sim.RunConfig, taskCounts []int) []Job {
	jobs := make([]Job, 0, len(taskCounts))
	for _, n := range taskCounts {
		jobs = append(jobs, Job{Variant: base.Name, Tasks: n, Config: withTasks(base, n)})
	}
	return jobs
}

// runSequential is the reference the pool is compared against: every job
// in order on one session, with no pool at all.
func runSequential(t *testing.T, jobs []Job) []sim.Result {
	t.Helper()
	sess := sim.NewSession(memo.New())
	out := make([]sim.Result, len(jobs))
	for i, j := range jobs {
		res, err := sess.Run(j.Config)
		if err != nil {
			t.Fatalf("%s n=%d: %v", j.Variant, j.Tasks, err)
		}
		out[i] = res
	}
	return out
}

// resultsOf strips the pool's bookkeeping, failing on any job error.
func resultsOf(t *testing.T, results []JobResult) []sim.Result {
	t.Helper()
	if err := Err(results); err != nil {
		t.Fatal(err)
	}
	out := make([]sim.Result, len(results))
	for i, r := range results {
		out[i] = r.Result
	}
	return out
}

// TestScenarioMatchesSequential proves the tentpole determinism claim: for
// both paper scenarios, the pool's output is bit-identical to running the
// same jobs in order on one session over a fresh cache, regardless of
// worker count.
func TestScenarioMatchesSequential(t *testing.T) {
	for _, scenario := range []int{1, 2} {
		np, err := sim.ScenarioContexts(scenario)
		if err != nil {
			t.Fatal(err)
		}
		var jobs []Job
		for _, v := range sim.ScenarioVariants() {
			jobs = append(jobs, sweepJobs(sim.RunConfig{
				Kind:       v.Kind,
				Name:       v.Name,
				ContextSMs: sim.ContextPool(np, v.OS, 68),
				HorizonSec: testHorizon,
				Seed:       1,
			}, testCounts)...)
		}
		seq := runSequential(t, jobs)
		for _, workers := range []int{0, 1, 3, 8} {
			par := resultsOf(t, Run(context.Background(), jobs, Options{Jobs: workers}))
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("scenario %d jobs=%d: parallel output differs from sequential", scenario, workers)
			}
		}
	}
}

// TestSweepSeriesMatchesSequential pins a one-variant sweep to the
// sequential reference as well.
func TestSweepSeriesMatchesSequential(t *testing.T) {
	jobs := sweepJobs(testBase("sgprs"), testCounts)
	seq := runSequential(t, jobs)
	if par := resultsOf(t, Run(context.Background(), jobs, Options{Jobs: 4})); !reflect.DeepEqual(seq, par) {
		t.Error("parallel series differs from sequential")
	}
}

// TestWorkerCountInvariance: one worker and many workers yield identical
// full results (not just summaries).
func TestWorkerCountInvariance(t *testing.T) {
	jobs := sweepJobs(testBase("sgprs"), []int{1, 2, 3, 4})
	one := Run(context.Background(), jobs, Options{Jobs: 1})
	many := Run(context.Background(), jobs, Options{Jobs: 8})
	if !reflect.DeepEqual(one, many) {
		t.Error("results differ between 1 and 8 workers")
	}
}

// TestFailureAttribution: a failing job reports its (variant, task count)
// without cancelling or discarding completed siblings.
func TestFailureAttribution(t *testing.T) {
	good := testBase("good")
	bad := testBase("broken")
	bad.ContextSMs = nil // fails Normalize
	jobs := []Job{
		{Variant: "good", Tasks: 2, Config: withTasks(good, 2)},
		{Variant: "broken", Tasks: 3, Config: withTasks(bad, 3)},
		{Variant: "good", Tasks: 4, Config: withTasks(good, 4)},
	}
	results := Run(context.Background(), jobs, Options{Jobs: 2})
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Errorf("healthy siblings failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[0].Result.Summary.TotalFPS <= 0 || results[2].Result.Summary.TotalFPS <= 0 {
		t.Error("completed siblings lost their results")
	}
	if results[1].Err == nil {
		t.Fatal("broken job reported no error")
	}
	var je JobError
	if !errors.As(results[1].Err, &je) {
		t.Fatalf("error %T does not unwrap to JobError", results[1].Err)
	}
	if je.Variant != "broken" || je.Tasks != 3 {
		t.Errorf("attribution = (%q, %d), want (broken, 3)", je.Variant, je.Tasks)
	}

	err := Err(results)
	if err == nil {
		t.Fatal("Err(results) = nil with one failure")
	}
	var es Errors
	if !errors.As(err, &es) || len(es) != 1 {
		t.Fatalf("Err(results) = %v, want one-element Errors", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "broken") || !strings.Contains(msg, "n=3") {
		t.Errorf("error message %q lacks coordinates", msg)
	}
}

// TestSweepSeriesKeepsFinishedPoints: a sweep with a failing point returns
// the completed points alongside the error instead of discarding them.
func TestSweepSeriesKeepsFinishedPoints(t *testing.T) {
	jobs := sweepJobs(testBase("sgprs"), []int{2, 0, 4}) // 0 tasks fails Normalize
	results := Run(context.Background(), jobs, Options{Jobs: 2})
	if Err(results) == nil {
		t.Fatal("want error for n=0 point")
	}
	if results[0].Err != nil || results[2].Err != nil || results[1].Err == nil {
		t.Fatalf("errors = %v / %v / %v, want only the n=0 point failed",
			results[0].Err, results[1].Err, results[2].Err)
	}
	if results[0].Result.Tasks != 2 || results[2].Result.Tasks != 4 {
		t.Fatalf("completed points = n=%d, n=%d; want n=2 and n=4", results[0].Result.Tasks, results[2].Result.Tasks)
	}
}

// TestProgress: the callback is serialized, called once per job, with a
// monotonic done count ending at total.
func TestProgress(t *testing.T) {
	jobs := sweepJobs(testBase("sgprs"), []int{1, 2, 3})
	var calls int
	last := 0
	seen := map[int]bool{}
	_ = Run(context.Background(), jobs, Options{Jobs: 3, Progress: func(done, total int, r JobResult) {
		calls++
		if total != 3 {
			t.Errorf("total = %d, want 3", total)
		}
		if done != last+1 {
			t.Errorf("done jumped from %d to %d", last, done)
		}
		last = done
		seen[r.Index] = true
	}})
	if calls != 3 || len(seen) != 3 {
		t.Errorf("calls = %d, distinct indices = %d, want 3/3", calls, len(seen))
	}
}

// TestSweepGrid: a flat multi-variant job list comes back in submission
// order, and identical variants produce identical results.
func TestSweepGrid(t *testing.T) {
	jobs := append(sweepJobs(testBase("a"), testCounts), sweepJobs(testBase("b"), testCounts)...)
	results := Run(context.Background(), jobs, Options{Jobs: 4})
	res := resultsOf(t, results)
	for i, r := range results {
		if r.Index != i || r.Job.Variant != jobs[i].Variant || r.Job.Tasks != jobs[i].Tasks {
			t.Errorf("result %d = %s n=%d (index %d), want %s n=%d", i, r.Job.Variant, r.Job.Tasks, r.Index, jobs[i].Variant, jobs[i].Tasks)
		}
	}
	for i := range testCounts {
		a, b := res[i], res[len(testCounts)+i]
		a.Name, b.Name = "", ""
		if !reflect.DeepEqual(a, b) {
			t.Errorf("n=%d: identical bases produced different results", testCounts[i])
		}
	}
}

// TestRunEmpty: a zero-job fan-out returns cleanly.
func TestRunEmpty(t *testing.T) {
	if got := Run(context.Background(), nil, Options{}); len(got) != 0 {
		t.Errorf("Run(nil) = %v", got)
	}
	if err := Err(nil); err != nil {
		t.Errorf("Err(nil) = %v", err)
	}
}

func withTasks(cfg sim.RunConfig, n int) sim.RunConfig {
	cfg.NumTasks = n
	return cfg
}

// TestCancellationSingleWorker pins the exact cancellation contract with one
// worker (deterministic on the single-core container): the job in flight
// when cancel fires drains and keeps its result, no further job is
// dispatched, and every undispatched job carries a ctx-attributed error.
func TestCancellationSingleWorker(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := sweepJobs(testBase("sgprs"), []int{2, 3, 4, 5})
	var streamed int
	results := Run(ctx, jobs, Options{Jobs: 1, Progress: func(done, total int, r JobResult) {
		streamed++
		if done == 1 {
			cancel() // while job 0 is being finalized; jobs 1..3 are undispatched
		}
	}})
	if streamed != len(jobs) {
		t.Errorf("progress streamed %d results, want %d (cancelled jobs included)", streamed, len(jobs))
	}
	if results[0].Err != nil {
		t.Fatalf("in-flight job was not drained: %v", results[0].Err)
	}
	if results[0].Result.Summary.TotalFPS <= 0 {
		t.Error("drained job lost its result")
	}
	for i := 1; i < len(results); i++ {
		if !errors.Is(results[i].Err, context.Canceled) {
			t.Errorf("job %d error = %v, want context.Canceled attribution", i, results[i].Err)
		}
		var je JobError
		if !errors.As(results[i].Err, &je) || je.Tasks != jobs[i].Tasks {
			t.Errorf("job %d lost its sweep coordinates: %v", i, results[i].Err)
		}
	}
	err := Err(results)
	if err == nil {
		t.Fatal("Err(results) = nil after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("aggregate error %v does not unwrap to context.Canceled", err)
	}
}

// TestCancellationPreCancelled: a context cancelled before Run dispatches
// anything yields zero executed jobs and one ctx-attributed error per job.
func TestCancellationPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := sweepJobs(testBase("sgprs"), testCounts)
	results := Run(ctx, jobs, Options{Jobs: 2})
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d = %+v, want context.Canceled", i, r.Err)
		}
	}
}

// TestCancelledSweepKeepsPoints: a cancelled sweep returns the completed
// points alongside the ctx-attributed Errors value — the partial-results
// contract extends to cancellation.
func TestCancelledSweepKeepsPoints(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{Jobs: 1, Progress: func(done, total int, r JobResult) {
		if done == 2 {
			cancel()
		}
	}}
	results := Run(ctx, sweepJobs(testBase("sgprs"), []int{2, 3, 4, 5}), opt)
	var completed []int
	for _, r := range results {
		if r.Err == nil {
			completed = append(completed, r.Result.Tasks)
		}
	}
	if !reflect.DeepEqual(completed, []int{2, 3}) {
		t.Fatalf("completed points = %v, want n=2 and n=3", completed)
	}
	if err := Err(results); !errors.Is(err, context.Canceled) {
		t.Errorf("sweep error = %v, want context.Canceled", err)
	}
}
