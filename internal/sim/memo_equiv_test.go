package sim

import (
	"reflect"
	"testing"

	"sgprs/internal/dnn"
	"sgprs/internal/memo"
	"sgprs/internal/workload"
)

// TestCachedScenarioBitIdentical is the offline-cache acceptance test: a
// fully cached scenario regeneration (fresh cache populated during the run,
// then a second pass served entirely from hits) must be byte-for-byte equal
// to the uncached batch reference (runBatch), for both paper scenarios. All
// comparisons
// are reflect.DeepEqual over every variant's series, so every float bit
// of every metric participates.
func TestCachedScenarioBitIdentical(t *testing.T) {
	counts := []int{4, 12, 24}
	const horizon = 2
	for _, scenario := range []int{1, 2} {
		uncached := batchScenario(t, scenario, counts, horizon)
		cache := memo.New()
		if cold := scenarioSeries(t, scenario, counts, horizon, cache); !reflect.DeepEqual(uncached, cold) {
			t.Errorf("scenario %d: cold-cache output differs from uncached", scenario)
		}
		if warm := scenarioSeries(t, scenario, counts, horizon, cache); !reflect.DeepEqual(uncached, warm) {
			t.Errorf("scenario %d: warm-cache output differs from uncached", scenario)
		}
		st := cache.Stats()
		if st.ProfileMisses == 0 || st.GraphMisses == 0 {
			t.Errorf("scenario %d: cache was never populated (%v)", scenario, st)
		}
		// The warm pass and the intra-run dedup must actually hit: a
		// scenario is 4 variants × 3 counts with up to 24 identical
		// tasks each, so hits must dwarf misses.
		if st.ProfileHits <= st.ProfileMisses {
			t.Errorf("scenario %d: expected profile hits > misses, got %v", scenario, st)
		}
	}
}

// TestCachedRunBitIdentical pins single-run equality with the uncached batch
// reference, cold and warm, including seed variations that must not be
// conflated by cache keying.
func TestCachedRunBitIdentical(t *testing.T) {
	base := RunConfig{
		Kind:       KindSGPRS,
		ContextSMs: []int{34, 34},
		NumTasks:   8,
		HorizonSec: 2,
	}
	cache := memo.New()
	for _, seed := range []uint64{1, 7} {
		cfg := base
		cfg.Seed = seed
		want, err := runBatch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm"} {
			got, err := NewSession(cache).Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("seed %d: %s-cache run differs from uncached", seed, pass)
			}
		}
	}
	// Two seeds, one task shape: the second seed must have been a pure
	// profile hit (seed is excluded from the profile key by design).
	if st := cache.Stats(); st.ProfileMisses != 1 {
		t.Errorf("expected exactly one profile miss across seeds, got %v", st)
	}
}

// runChain runs cfg on sess and returns the stage chain its task set holds,
// failing t unless every task holds that one chain.
func runChain(t *testing.T, sess *Session, cfg RunConfig) []*dnn.Stage {
	t.Helper()
	if _, err := sess.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(sess.tasks) != 1 {
		t.Fatalf("session built %d task sets, want 1", len(sess.tasks))
	}
	var chain []*dnn.Stage
	for _, tasks := range sess.tasks {
		chain = tasks[0].Stages
		for _, task := range tasks {
			if &task.Stages[0] != &chain[0] {
				t.Fatalf("task %s holds a chain of its own", task.Name)
			}
		}
	}
	return chain
}

// TestFreshSessionsShareOneChain: a fresh session on a warm cache builds its
// task set on the chain the first session's run partitioned, so the
// reference graph is cut once however many sessions use it.
func TestFreshSessionsShareOneChain(t *testing.T) {
	cfg := RunConfig{Kind: KindSGPRS, ContextSMs: []int{34, 34}, NumTasks: 4, HorizonSec: 0.5, WarmUpSec: 0.1}
	cache := memo.New()
	a := runChain(t, NewSession(cache), cfg)
	b := runChain(t, NewSession(cache), cfg)
	if &a[0] != &b[0] {
		t.Fatal("the second session partitioned the graph again")
	}
}

// TestUncuttableStagesError: a stage count above the reference graph's cut
// points fails with the error workload.Build reports for the same specs,
// on a fresh session and again on a second one over the same cache.
func TestUncuttableStagesError(t *testing.T) {
	cfg := RunConfig{Kind: KindSGPRS, ContextSMs: []int{34}, NumTasks: 2, Stages: 1000, HorizonSec: 0.5, WarmUpSec: 0.1}
	_, want := workload.Build(workload.Replicate(workload.Options{
		Count: 2,
		Spec:  workload.TaskSpec{Name: "resnet18", Graph: ReferenceGraph(defaultModel()), Stages: 1000, FPS: 30},
	}))
	if want == nil {
		t.Fatal("workload.Build accepted 1000 stages")
	}
	cache := memo.New()
	for range 2 {
		if _, err := NewSession(cache).Run(cfg); err == nil || err.Error() != want.Error() {
			t.Fatalf("err = %v, want %v", err, want)
		}
	}
}

// TestNormalizeRejectsNegatives: negative quantities must be rejected, not
// silently defaulted like zeros are.
func TestNormalizeRejectsNegatives(t *testing.T) {
	mutations := map[string]func(*RunConfig){
		"fps":      func(c *RunConfig) { c.FPS = -30 },
		"stages":   func(c *RunConfig) { c.Stages = -1 },
		"warmup":   func(c *RunConfig) { c.WarmUpSec = -0.5 },
		"jitter":   func(c *RunConfig) { c.ReleaseJitterMS = -1 },
		"numtasks": func(c *RunConfig) { c.NumTasks = -4 },
	}
	for name, mutate := range mutations {
		cfg := RunConfig{Kind: KindSGPRS, ContextSMs: []int{34}, NumTasks: 1}
		mutate(&cfg)
		if err := cfg.Normalize(); err == nil {
			t.Errorf("%s: negative value accepted", name)
		}
	}
	// Zeros still default.
	cfg := RunConfig{Kind: KindSGPRS, ContextSMs: []int{34}, NumTasks: 1}
	if err := cfg.Normalize(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if cfg.FPS != 30 || cfg.Stages != 6 || cfg.WarmUpSec != 1 {
		t.Errorf("zero defaults changed: fps=%v stages=%d warmup=%v", cfg.FPS, cfg.Stages, cfg.WarmUpSec)
	}
}
