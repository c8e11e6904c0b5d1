package memo_test

import (
	"slices"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/exp"
	"sgprs/internal/memo"
	"sgprs/internal/profile"
	"sgprs/internal/runner"
	"sgprs/internal/sim"
	"sgprs/internal/speedup"
	"sgprs/internal/workload"
)

// paperGrid compiles the paper's two scenarios over the task counts of the
// host-speed benchmark's paper-grid workload: 72 cells, 1,328 tasks.
func paperGrid(tb testing.TB) []runner.Job {
	var jobs []runner.Job
	for _, sc := range []int{1, 2} {
		spec, err := exp.Scenario(sc, []int{4, 8, 12, 16, 20, 23, 25, 28, 30}, 4, 1)
		if err != nil {
			tb.Fatal(err)
		}
		c, err := spec.Compile()
		if err != nil {
			tb.Fatal(err)
		}
		jobs = append(jobs, c.Jobs...)
	}
	return jobs
}

// offlinePhase does every cell's offline work the way sim.Session.Run does
// for a fresh task set: the reference graph, the task set's Build, then
// ProfileTasks.
func offlinePhase(tb testing.TB, cache *memo.Cache, jobs []runner.Job) {
	model := sim.DefaultModel()
	key := memo.GraphKey{Model: model, Name: "resnet18-ref", SMs: speedup.DeviceSMs, TargetMS: sim.ReferenceLatencyMS}
	for _, j := range jobs {
		cfg := j.Config
		if err := cfg.Normalize(); err != nil {
			tb.Fatal(err)
		}
		graph := cache.Graph(key, func() *dnn.Graph { return sim.ReferenceGraph(model) })
		tasks, err := workload.Build(workload.Replicate(workload.Options{
			Count: cfg.NumTasks,
			Spec: workload.TaskSpec{
				Name:          "resnet18",
				Graph:         graph,
				Stages:        cfg.Stages,
				FPS:           cfg.FPS,
				ReleaseJitter: des.FromMillis(cfg.ReleaseJitterMS),
				WorkVariation: cfg.WorkVariation,
			},
			Stagger: cfg.Stagger,
		}))
		if err != nil {
			tb.Fatal(err)
		}
		if err := cache.ProfileTasks(profile.New(model, cfg.GPU), tasks, slices.Min(cfg.ContextSMs)); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkOfflinePhase times one op of the paper grid's offline phase on a
// warm cache: every cell's Build and ProfileTasks, with every graph and
// profile a hit and every chain already cut on the cached graph, so it
// measures the per-task cost the memos do not remove. Report-only.
func BenchmarkOfflinePhase(b *testing.B) {
	jobs := paperGrid(b)
	cache := memo.New()
	offlinePhase(b, cache, jobs) // warm the cache outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offlinePhase(b, cache, jobs)
	}
}
