package memo

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"sgprs/internal/dnn"
	"sgprs/internal/gpu"
	"sgprs/internal/profile"
	"sgprs/internal/rt"
	"sgprs/internal/speedup"
)

func testTask(t *testing.T, model *speedup.Model, id, stages int) *rt.Task {
	t.Helper()
	g := dnn.ResNet18(dnn.DefaultCostModel())
	parts, err := dnn.Partition(g, stages)
	if err != nil {
		t.Fatal(err)
	}
	task, err := rt.NewTask(id, "t", g, parts, 1e6, 1e6, 0)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

// TestGraphSingleflight: concurrent Graph calls for one key build exactly
// once and share the pointer.
func TestGraphSingleflight(t *testing.T) {
	c := New()
	model := speedup.DefaultModel()
	key := GraphKey{Model: model, Name: "ref", SMs: 68, TargetMS: 1.4}
	var builds atomic.Int32
	build := func() *dnn.Graph {
		builds.Add(1)
		return dnn.ResNet18(dnn.DefaultCostModel())
	}
	const workers = 8
	got := make([]*dnn.Graph, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.Graph(key, build)
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	for i := 1; i < workers; i++ {
		if got[i] != got[0] {
			t.Fatal("workers received different graph instances")
		}
	}
	st := c.Stats()
	if st.GraphMisses != 1 || st.GraphHits != workers-1 {
		t.Fatalf("stats = %v, want 1 miss / %d hits", st, workers-1)
	}
}

// TestProfileTasksDedupAndEquality: N identical tasks profile once, and the
// installed WCETs equal the uncached profiler's output exactly.
func TestProfileTasksDedupAndEquality(t *testing.T) {
	model := speedup.DefaultModel()
	prof := profile.New(model, gpu.DefaultConfig())

	const n = 5
	tasks := make([]*rt.Task, n)
	for i := range tasks {
		tasks[i] = testTask(t, model, i, 6)
	}
	c := New()
	if err := c.ProfileTasks(prof, tasks, 34); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ProfileMisses != 1 || st.ProfileHits != n-1 {
		t.Fatalf("stats = %v, want 1 miss / %d hits", st, n-1)
	}

	ref := testTask(t, model, 99, 6)
	if err := prof.ProfileTask(ref, 34); err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		for j := 0; j < len(task.Stages); j++ {
			if task.StageWCET(j) != ref.StageWCET(j) {
				t.Fatalf("stage %d WCET %v differs from uncached %v", j, task.StageWCET(j), ref.StageWCET(j))
			}
			if task.VirtualDeadline(j) != ref.VirtualDeadline(j) {
				t.Fatalf("stage %d virtual deadline differs", j)
			}
		}
	}
}

// TestProfileKeySeparation: dimensions that can change the measurement (SM
// count, stage count, launch overhead) key separately; dimensions that
// provably cannot (seed, gain cap, contention coefficients) share entries.
func TestProfileKeySeparation(t *testing.T) {
	model := speedup.DefaultModel()
	base := gpu.DefaultConfig()
	c := New()

	profileOne := func(cfg gpu.Config, stages, sms int) {
		t.Helper()
		task := testTask(t, model, 0, stages)
		if err := c.ProfileTasks(profile.New(model, cfg), []*rt.Task{task}, sms); err != nil {
			t.Fatal(err)
		}
	}

	profileOne(base, 6, 34)
	if st := c.Stats(); st.ProfileMisses != 1 {
		t.Fatalf("misses = %d, want 1", st.ProfileMisses)
	}

	// Irrelevant dimensions: hits.
	withSeed := base
	withSeed.Seed = 12345
	profileOne(withSeed, 6, 34)
	withCap := base
	withCap.AggregateGainCap = 99
	profileOne(withCap, 6, 34)
	withJitter := base
	withJitter.ContentionJitter = 0.5
	withJitter.ContentionPenalty = 0.5
	profileOne(withJitter, 6, 34)
	if st := c.Stats(); st.ProfileMisses != 1 || st.ProfileHits != 3 {
		t.Fatalf("after irrelevant-dimension lookups: %v, want 1 miss / 3 hits", st)
	}

	// Relevant dimensions: fresh misses.
	profileOne(base, 6, 51) // different context size
	profileOne(base, 3, 34) // different shape
	withOverhead := base
	withOverhead.LaunchOverhead = 2 * base.LaunchOverhead
	profileOne(withOverhead, 6, 34)
	if st := c.Stats(); st.ProfileMisses != 4 {
		t.Fatalf("after relevant-dimension lookups: %v, want 4 misses", st)
	}
}

// shapeFingerprint is a chain's profile-key fingerprint as a string.
func shapeFingerprint(stages []*dnn.Stage) string { return string(appendShape(nil, stages)) }

// TestShapeFingerprintDistinguishesShapes: the fingerprint is exact — equal
// for equal share vectors, different for different work or partitioning.
func TestShapeFingerprintDistinguishesShapes(t *testing.T) {
	g := dnn.ResNet18(dnn.DefaultCostModel())
	s6a, _ := dnn.Partition(g, 6)
	s6b, _ := dnn.Partition(g, 6)
	s3, _ := dnn.Partition(g, 3)
	if shapeFingerprint(s6a) != shapeFingerprint(s6b) {
		t.Fatal("identical partitions fingerprint differently")
	}
	if shapeFingerprint(s6a) == shapeFingerprint(s3) {
		t.Fatal("different stage counts share a fingerprint")
	}
	scaled := dnn.ResNet18(dnn.DefaultCostModel()).Scale(1.001)
	s6c, _ := dnn.Partition(scaled, 6)
	if shapeFingerprint(s6a) == shapeFingerprint(s6c) {
		t.Fatal("different work totals share a fingerprint")
	}
}

// TestConcurrentProfileTasksSingleflight: many goroutines profiling the same
// shape through one cache must agree and account exactly one miss.
func TestConcurrentProfileTasksSingleflight(t *testing.T) {
	model := speedup.DefaultModel()
	prof := profile.New(model, gpu.DefaultConfig())
	c := New()
	const workers = 8
	tasks := make([]*rt.Task, workers)
	for i := range tasks {
		tasks[i] = testTask(t, model, i, 6)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.ProfileTasks(prof, tasks[i:i+1], 34)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.ProfileMisses != 1 || st.ProfileHits != workers-1 {
		t.Fatalf("stats = %v, want 1 miss / %d hits", st, workers-1)
	}
	var wcets [][]int64
	for _, task := range tasks {
		row := make([]int64, len(task.Stages))
		for j := range row {
			row[j] = int64(task.StageWCET(j))
		}
		wcets = append(wcets, row)
	}
	for i := 1; i < workers; i++ {
		if !reflect.DeepEqual(wcets[i], wcets[0]) {
			t.Fatalf("worker %d got different WCETs", i)
		}
	}
}

// TestProfileTasksInterleavedChains: tasks that share stage chains, in the
// order A, A, B, A, B, each get their own chain's table — equal to the
// uncached profiler's — and the cache counts one lookup per task, exactly
// as fingerprinting every task would. A and B have the same stage count, so
// reusing an entry on a length match alone would hand B A's table.
func TestProfileTasksInterleavedChains(t *testing.T) {
	model := speedup.DefaultModel()
	prof := profile.New(model, gpu.DefaultConfig())
	cm := dnn.DefaultCostModel()
	chain := func(g *dnn.Graph) []*dnn.Stage {
		stages, err := dnn.Partition(g, 6)
		if err != nil {
			t.Fatal(err)
		}
		return stages
	}
	a, b := chain(dnn.ResNet18(cm)), chain(dnn.VGG11(cm))
	var tasks []*rt.Task
	for i, stages := range [][]*dnn.Stage{a, a, b, a, b} {
		task, err := rt.NewTask(i, "t", nil, stages, 1e8, 1e8, 0)
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	c := New()
	if err := c.ProfileTasks(prof, tasks, 34); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.ProfileMisses != 2 || st.ProfileHits != 3 {
		t.Fatalf("stats = %v, want 2 misses / 3 hits", st)
	}
	for i, task := range tasks {
		ref, err := rt.NewTask(0, "ref", nil, task.Stages, 1e8, 1e8, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := prof.ProfileTask(ref, 34); err != nil {
			t.Fatal(err)
		}
		for j := range task.Stages {
			if task.StageWCET(j) != ref.StageWCET(j) || task.VirtualDeadline(j) != ref.VirtualDeadline(j) {
				t.Fatalf("task %d stage %d: WCET %v, deadline %v; uncached %v, %v", i, j,
					task.StageWCET(j), task.VirtualDeadline(j), ref.StageWCET(j), ref.VirtualDeadline(j))
			}
		}
	}
}

// TestPartitionSingleflight: concurrent Partition calls on one cached graph
// and stage count cut the graph once and share the chain, which equals
// dnn.Partition's; another stage count is another entry.
func TestPartitionSingleflight(t *testing.T) {
	c := New()
	key := GraphKey{Model: speedup.DefaultModel(), Name: "ref", SMs: 68, TargetMS: 1.4}
	g := c.Graph(key, func() *dnn.Graph { return dnn.ResNet18(dnn.DefaultCostModel()) })
	const workers = 8
	got := make([][]*dnn.Stage, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = c.Partition(g, 6)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if &got[i][0] != &got[0][0] {
			t.Fatalf("worker %d received a chain of its own", i)
		}
	}
	if st := c.Stats(); st.PartitionMisses != 1 || st.PartitionHits != workers-1 {
		t.Fatalf("stats = %v, want 1 partition miss / %d hits", st, workers-1)
	}
	want, err := dnn.Partition(dnn.ResNet18(dnn.DefaultCostModel()), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Fatal("memoized chain differs from dnn.Partition's")
	}

	four, err := c.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(four) != 4 {
		t.Fatalf("4-stage lookup returned %d stages", len(four))
	}
	if st := c.Stats(); st.PartitionMisses != 2 {
		t.Fatalf("stats = %v, want a second partition miss for 4 stages", st)
	}
}

// TestPartitionErrorMemoized: a stage count the graph cannot be cut into
// returns dnn.Partition's error, once computed and then served as a hit.
func TestPartitionErrorMemoized(t *testing.T) {
	c := New()
	key := GraphKey{Model: speedup.DefaultModel(), Name: "ref", SMs: 68, TargetMS: 1.4}
	g := c.Graph(key, func() *dnn.Graph { return dnn.ResNet18(dnn.DefaultCostModel()) })
	_, want := dnn.Partition(g, 1000)
	if want == nil {
		t.Fatal("dnn.Partition accepted 1000 stages")
	}
	for range 2 {
		if _, err := c.Partition(g, 1000); err == nil || err.Error() != want.Error() {
			t.Fatalf("err = %v, want %v", err, want)
		}
	}
	if st := c.Stats(); st.PartitionMisses != 1 || st.PartitionHits != 1 {
		t.Fatalf("stats = %v, want 1 partition miss / 1 hit", st)
	}
}

// TestPartitionForeignGraph: a graph the cache did not build is cut anew on
// every call and never counted.
func TestPartitionForeignGraph(t *testing.T) {
	c := New()
	g := dnn.ResNet18(dnn.DefaultCostModel())
	a, err := c.Partition(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Partition(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] == &b[0] {
		t.Fatal("a caller's own graph was memoized")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("stats = %v, want no traffic", st)
	}
}
