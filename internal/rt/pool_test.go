package rt

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"sgprs/internal/des"
	"sgprs/internal/slab"
)

// profiledTask builds a profiled 3-stage task for pool tests.
func profiledTask(t *testing.T, id int) *Task {
	t.Helper()
	task := testTask(t, 3)
	task.ID = id
	wcets := []des.Time{des.FromMillis(2), des.FromMillis(3), des.FromMillis(1)}
	if err := task.SetWCETs(wcets); err != nil {
		t.Fatal(err)
	}
	return task
}

// TestPoolReuseMatchesFreshJob: a job from the reuse path must be field-for-
// field identical to a freshly allocated one, including every stage.
func TestPoolReuseMatchesFreshJob(t *testing.T) {
	task := profiledTask(t, 0)
	var p JobPool

	old := p.Get(task, 0, des.FromMillis(10))
	dirty(old)
	p.Put(old)

	got := p.Get(task, 7, des.FromMillis(50))
	if got != old {
		t.Fatal("pool did not hand back the recycled job struct")
	}
	assertLikeFresh(t, got, task.NewJob(7, des.FromMillis(50)))
}

// TestPoolDoubleRecyclePanics: putting a job twice before reuse is the
// use-after-recycle bug the pool must surface loudly.
func TestPoolDoubleRecyclePanics(t *testing.T) {
	task := profiledTask(t, 0)
	var p JobPool
	j := p.Get(task, 0, 0)
	p.Put(j)
	defer func() {
		if recover() == nil {
			t.Fatal("double Put did not panic")
		}
	}()
	p.Put(j)
}

// countingWatcher records lifecycle callbacks per (task, index) identity.
type countingWatcher struct {
	done      map[[2]int]int
	discarded int
	pool      *JobPool
}

func (w *countingWatcher) JobDone(j *Job, now des.Time) {
	if w.done == nil {
		w.done = map[[2]int]int{}
	}
	w.done[[2]int{j.Task.ID, j.Index}]++
	if w.pool != nil {
		w.pool.Put(j)
	}
}

func (w *countingWatcher) JobDiscarded(j *Job, now des.Time) {
	w.discarded++
	if w.pool != nil {
		w.pool.Put(j)
	}
}

// TestRecycledJobCannotCorruptLiveJob is the metrics-safety test: after a
// finished job is recorded and recycled, its struct's next occupant carries
// fresh identity and a live lifecycle, and completing the new occupant can
// never re-fire the old occupant's completion. The recycled struct's slate
// (slot, watcher, flags) is wiped before the new job is visible to anyone.
func TestRecycledJobCannotCorruptLiveJob(t *testing.T) {
	task := profiledTask(t, 3)
	var p JobPool
	w := &countingWatcher{pool: &p}

	a := p.Get(task, 0, 0)
	a.Watcher = w
	a.MetricsSlot = 0
	for _, st := range a.Stages {
		st.MarkFinished(des.FromMillis(5)) // last stage fires JobDone → Put
	}
	if w.done[[2]int{3, 0}] != 1 {
		t.Fatalf("job a completed %d times, want 1", w.done[[2]int{3, 0}])
	}
	if p.Len() != 1 {
		t.Fatalf("pool holds %d jobs after completion, want 1", p.Len())
	}

	// b reuses a's struct. Its slot and watcher must start clean, so a
	// collector that assigned slot 0 to a can never see b under a's slot.
	b := p.Get(task, 1, des.FromMillis(40))
	if b != a {
		t.Fatal("pool did not reuse the recycled struct")
	}
	if b.MetricsSlot != -1 || b.Watcher != nil || b.Done {
		t.Fatalf("recycled struct leaked state into new job: slot=%d watcher=%v done=%v",
			b.MetricsSlot, b.Watcher, b.Done)
	}
	b.Watcher = w
	b.MetricsSlot = 1
	for _, st := range b.Stages {
		st.MarkFinished(des.FromMillis(45))
	}
	if w.done[[2]int{3, 0}] != 1 || w.done[[2]int{3, 1}] != 1 {
		t.Fatalf("completion counts corrupted: %v", w.done)
	}
}

// TestDiscardNotifiesWatcherOnce: discarding an unfinished job fires
// JobDiscarded (recycling it), and discarding a done job panics.
func TestDiscardNotifiesWatcherOnce(t *testing.T) {
	task := profiledTask(t, 0)
	var p JobPool
	w := &countingWatcher{pool: &p}

	j := p.Get(task, 0, 0)
	j.Watcher = w
	j.Discard(des.FromMillis(1))
	if w.discarded != 1 || p.Len() != 1 {
		t.Fatalf("discard: %d callbacks, %d pooled; want 1 and 1", w.discarded, p.Len())
	}

	done := task.NewJob(1, 0)
	done.Stages[len(done.Stages)-1].MarkFinished(des.FromMillis(2))
	defer func() {
		if recover() == nil {
			t.Fatal("Discard of a completed job did not panic")
		}
	}()
	done.Discard(des.FromMillis(3))
}

// stagedTask builds a profiled task with n stages for the stage-count tests.
func stagedTask(t *testing.T, id, n int) *Task {
	t.Helper()
	task := testTask(t, n)
	task.ID = id
	wcets := make([]des.Time, n)
	for s := range wcets {
		wcets[s] = des.FromMillis(1 + 0.5*float64(s))
	}
	if err := task.SetWCETs(wcets); err != nil {
		t.Fatal(err)
	}
	return task
}

// dirty writes every mutable field the online phase touches, the way a job
// abandoned mid-flight at a run's horizon would be left.
func dirty(j *Job) {
	j.WorkScale = 1.7
	j.MetricsSlot = 42
	j.BacklogSlot = 7
	j.Retries = 2
	j.Discarded, j.DiscardedAt = true, j.Release+4
	j.Watcher = &countingWatcher{}
	for _, st := range j.Stages {
		st.MarkReady(j.Release + 1)
		st.MarkStarted(j.Release + 2)
		st.Level = LevelMedium
		st.MarkFinished(j.Release + 3) // the last one completes the job
	}
}

// assertLikeFresh fails unless got equals want, a freshly allocated job of
// the same instance, in every field but Gen, including every stage.
func assertLikeFresh(t *testing.T, got, want *Job) {
	t.Helper()
	g, w := *got, *want
	g.Stages, w.Stages, g.Gen, w.Gen = nil, nil, 0, 0
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("recycled job not reinitialised:\n got %+v\nwant %+v", g, w)
	}
	if len(got.Stages) != len(want.Stages) {
		t.Fatalf("recycled job has %d stages, want %d", len(got.Stages), len(want.Stages))
	}
	for s := range got.Stages {
		gs, ws := *got.Stages[s], *want.Stages[s]
		if gs.Job != got || ws.Job != want {
			t.Fatalf("stage %d points at the wrong job", s)
		}
		gs.Job, ws.Job = nil, nil
		if gs != ws {
			t.Fatalf("recycled stage %d not reinitialised:\n got %+v\nwant %+v", s, gs, ws)
		}
	}
}

// TestPoolReclaimReturnsUnputJobs: jobs a run left in flight — never Put —
// come back out of the pool after Reclaim, alongside the ones that were Put,
// and every reincarnation carries a higher generation than the last.
func TestPoolReclaimReturnsUnputJobs(t *testing.T) {
	task := profiledTask(t, 0)
	var p JobPool
	gens := map[*Job]uint64{}
	var first *Job
	for i := 0; i < 4; i++ {
		j := p.Get(task, i, des.FromMillis(float64(10*i)))
		dirty(j)
		gens[j] = j.Gen
		if i == 0 {
			first = j
		}
	}
	p.Put(first)
	if p.Len() != 1 {
		t.Fatalf("pool holds %d jobs before reclaim, want 1", p.Len())
	}

	p.Reclaim()
	n := len(gens)
	if p.Len() != n {
		t.Fatalf("pool holds %d jobs after reclaim, want %d", p.Len(), n)
	}
	for i := 0; i < n; i++ {
		j := p.Get(task, 100+i, des.FromMillis(500))
		old, ok := gens[j]
		if !ok {
			t.Fatalf("Get %d allocated instead of reusing a reclaimed job", i)
		}
		if j.Gen <= old {
			t.Fatalf("generation went from %d to %d across the reclaim", old, j.Gen)
		}
		delete(gens, j)
		assertLikeFresh(t, j, task.NewJob(100+i, des.FromMillis(500)))
	}
	if p.Len() != 0 {
		t.Fatalf("pool holds %d jobs after draining, want 0", p.Len())
	}
}

// TestPoolPutAfterReclaimPanics: a reference that outlived the reclaim —
// an in-flight job the previous run still held — is stale, and putting it
// is a double recycle.
func TestPoolPutAfterReclaimPanics(t *testing.T) {
	task := profiledTask(t, 0)
	var p JobPool
	j := p.Get(task, 0, 0)
	p.Reclaim()
	defer func() {
		if recover() == nil {
			t.Fatal("Put of a reclaimed job did not panic")
		}
	}()
	p.Put(j)
}

// TestPoolStageCountChange: a recycled job taken by a task with more stages
// (the slab regrows) or fewer (the slab is reused in part) is rewritten in
// every job and stage field.
func TestPoolStageCountChange(t *testing.T) {
	var p JobPool
	j := p.Get(stagedTask(t, 0, 3), 0, des.FromMillis(5))
	for i, n := range []int{6, 2, 3, 12, 1} {
		dirty(j)
		p.Put(j)
		task := stagedTask(t, i+1, n)
		release := des.FromMillis(float64(40 * (i + 1)))
		got := p.Get(task, i+1, release)
		if got != j {
			t.Fatal("pool did not hand back the recycled job struct")
		}
		assertLikeFresh(t, got, task.NewJob(i+1, release))
	}
}

// heapDelta runs f and reports the heap allocations it made and the bytes
// they took.
func heapDelta(f func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestPoolGrowsInSlabs: driving the pool to a peak of P live jobs takes
// O(log P) allocations — jobs, stage structs and stage pointer slices are
// carved from slab chunks, not allocated one by one — and reserves at most
// about 1.25·P + one minimum chunk of each, plus the allocator's size-class
// rounding. Only Put jobs count in Len.
func TestPoolGrowsInSlabs(t *testing.T) {
	task := profiledTask(t, 0)
	// Just past a power of two times MinChunk, where a pool that doubled
	// its chunks would reserve nearly 2·P.
	const peak = 4100
	var p JobPool
	jobs := make([]*Job, 0, peak)
	mallocs, bytes := heapDelta(func() {
		for i := range peak {
			jobs = append(jobs, p.Get(task, i, 0))
		}
	})
	if limit := uint64(12 * math.Log2(peak)); mallocs > limit {
		t.Errorf("growing to %d jobs took %d allocations, want ≤ %d (O(log P))", peak, mallocs, limit)
	}
	n := len(task.Stages)
	perJob := unsafe.Sizeof(Job{}) + uintptr(n)*(unsafe.Sizeof(StageJob{})+unsafe.Sizeof(&StageJob{}))
	reserve := uint64((peak + peak/4 + slab.MinChunk) * perJob)
	if limit := reserve + reserve/8; bytes > limit {
		t.Errorf("growing to %d jobs took %d bytes, want ≤ %d (1.25·P + MinChunk jobs of %d bytes, +1/8)", peak, bytes, limit, perJob)
	}
	if p.Len() != 0 {
		t.Errorf("pool lists %d free jobs before any Put, want 0", p.Len())
	}
	seen := map[*StageJob]bool{}
	for _, j := range jobs {
		for _, st := range j.Stages {
			if seen[st] || st.Job != j {
				t.Fatalf("stage %s is shared or points at another job", st)
			}
			seen[st] = true
		}
	}
	for _, j := range jobs[:peak/2] {
		p.Put(j)
	}
	if p.Len() != peak/2 {
		t.Errorf("pool lists %d free jobs after %d Puts", p.Len(), peak/2)
	}
}
