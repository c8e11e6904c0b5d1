package runner

import (
	"context"
	"testing"

	"sgprs/internal/memo"
	"sgprs/internal/sim"
)

// BenchmarkRunnerJob times the pool's overhead per job: tiny jobs (one task,
// 0.1 s horizon) run through Run on one worker with a progress callback, in
// sweeps of 72 jobs like the paper grid ("pool"), against the same jobs run
// in order on one session with no pool at all ("direct"). One op is one job.
// The gap between the two is what the runner adds per job — its share of a
// sweep's worker session and result slice, the claim, the context check, the
// panic guard and the progress call. Report-only; both run over a warm
// offline cache.
func BenchmarkRunnerJob(b *testing.B) {
	cfg := testBase("bench")
	cfg.HorizonSec, cfg.WarmUpSec = 0.1, 0.05
	cache := memo.New()
	if _, err := sim.NewSession(cache).Run(cfg); err != nil {
		b.Fatal(err)
	}
	b.Run("pool", func(b *testing.B) {
		const sweep = 72
		jobs := make([]Job, sweep)
		for i := range jobs {
			jobs[i] = Job{Variant: cfg.Name, Tasks: cfg.NumTasks, Config: cfg}
		}
		opt := Options{Jobs: 1, Cache: cache, Progress: func(int, int, JobResult) {}}
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; done += sweep {
			if err := Err(Run(context.Background(), jobs[:min(sweep, b.N-done)], opt)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		sess := sim.NewSession(cache)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if _, err := sess.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
