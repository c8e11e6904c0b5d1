package metrics

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/rt"
)

// mkTask builds a profiled 2-stage synthetic task.
func mkTask(t testing.TB, id int, period des.Time) *rt.Task {
	t.Helper()
	g := dnn.TinyCNN(dnn.DefaultCostModel())
	stages, err := dnn.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	task, err := rt.NewTask(id, "t", g, stages, period, period, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := task.SetWCETs([]des.Time{des.Millisecond, des.Millisecond}); err != nil {
		t.Fatal(err)
	}
	return task
}

// replay feeds the jobs' lifecycle into a fresh collector: releases in
// release order (as the generator would), end-of-life events in the order
// given by perm. Completed jobs report JobDone, discarded ones
// JobDiscarded; jobs still pending at the horizon get no callback — the
// three end states the schedulers produce. Returns the streaming summary.
func replay(jobs []*rt.Job, perm []int, warmUp, horizon des.Time, sloMS float64) Summary {
	return collect(jobs, perm, warmUp, horizon, sloMS).Summary()
}

// collect is replay without the final Summary.
func collect(jobs []*rt.Job, perm []int, warmUp, horizon des.Time, sloMS float64) *Collector {
	c := NewCollector(warmUp, horizon)
	c.SetSLO(sloMS)
	for _, j := range jobs {
		c.JobReleased(j, j.Release)
	}
	for _, i := range perm {
		j := jobs[i]
		switch {
		case j.Done:
			c.JobDone(j, j.FinishedAt)
		case j.Discarded:
			c.JobDiscarded(j, j.DiscardedAt)
		}
	}
	return c
}

// TestCollectorMatchesEvaluate is the bit-identity test: over a mixed
// workload (on-time, late, discarded, and never-finishing jobs from two
// interleaved tasks), the streaming summary must equal the batch EvaluateSLO
// byte for byte — with completions delivered in release order AND in
// reverse/shuffled order, since the device finishes jobs in neither order
// in general.
func TestCollectorMatchesEvaluate(t *testing.T) {
	pA := des.FromMillis(100)
	pB := des.FromMillis(130)
	taskA := mkTask(t, 0, pA)
	taskB := mkTask(t, 1, pB)

	var jobs []*rt.Job
	for i := 0; i < 80; i++ {
		j := taskA.NewJob(i, des.Time(int64(pA)*int64(i)))
		switch i % 4 {
		case 0, 1: // on time
			j.Stages[1].MarkFinished(j.Release.Add(des.FromMillis(20)))
		case 2: // late
			j.Stages[1].MarkFinished(j.Release.Add(des.FromMillis(150)))
		case 3: // dropped by the scheduler mid-flight
			j.Discard(j.Release.Add(des.FromMillis(60)))
		}
		jobs = append(jobs, j)
	}
	for i := 0; i < 61; i++ {
		j := taskB.NewJob(i, des.Time(int64(pB)*int64(i)))
		if i%3 != 0 {
			j.Stages[1].MarkFinished(j.Release.Add(des.FromMillis(float64(40 + 7*(i%11)))))
		} else if i%6 == 0 {
			// Discarded; the remaining third stays pending forever.
			j.Discard(j.Release.Add(des.FromMillis(25)))
		}
		jobs = append(jobs, j)
	}
	// EvaluateSLO walks jobs in release order.
	byRelease := append([]*rt.Job(nil), jobs...)
	for i := 1; i < len(byRelease); i++ {
		for k := i; k > 0 && byRelease[k].Release < byRelease[k-1].Release; k-- {
			byRelease[k], byRelease[k-1] = byRelease[k-1], byRelease[k]
		}
	}

	warmUp, horizon := des.Second, des.FromSeconds(7)
	// SLO at 50 ms splits taskB's completions into hits and misses.
	const sloMS = 50
	want := EvaluateSLO(byRelease, warmUp, horizon, sloMS)
	if want.Dropped == 0 || want.QueueDepthMax == 0 || want.SLOHitRate == 0 {
		t.Fatalf("workload exercises no overload metrics: %+v", want)
	}

	inOrder := make([]int, len(byRelease))
	reversed := make([]int, len(byRelease))
	for i := range inOrder {
		inOrder[i] = i
		reversed[len(reversed)-1-i] = i
	}
	shuffled := append([]int(nil), inOrder...)
	rand.New(rand.NewSource(42)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})

	for name, perm := range map[string][]int{
		"release-order": inOrder, "reverse-order": reversed, "shuffled": shuffled,
	} {
		got := replay(byRelease, perm, warmUp, horizon, sloMS)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: streaming summary differs from EvaluateSLO:\nwant %+v\ngot  %+v", name, want, got)
		}
	}
}

// TestCollectorSortFallbackMatchesFastPath pins the queue-depth fast path
// against its fallback: over randomized intervals, a collector fed in time
// order (the engine's order; queueDepth sweeps its logs as they are) and one
// fed out of order (queueDepth sorts copies first) must give identical
// Summaries, both equal to EvaluateSLO.
func TestCollectorSortFallbackMatchesFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	task := mkTask(t, 0, des.FromMillis(40))
	for trial := 0; trial < 200; trial++ {
		var jobs []*rt.Job
		var release des.Time
		for i, n := 0, 1+rng.Intn(300); i < n; i++ {
			// Gaps of zero make coincident releases and ends.
			release += des.FromMillis(float64(rng.Intn(4) * 5))
			j := task.NewJob(i, release)
			switch end := release.Add(des.FromMillis(float64(rng.Intn(12) * 5))); rng.Intn(4) {
			case 0, 1:
				j.Stages[1].MarkFinished(end)
			case 2:
				j.Discard(end)
			}
			jobs = append(jobs, j)
		}
		warmUp := des.FromMillis(float64(rng.Intn(200)))
		horizon := warmUp + des.FromMillis(float64(1+rng.Intn(int(release/des.Millisecond)+100)))
		sloMS := float64(rng.Intn(3) * 20)

		byEnd := make([]int, len(jobs))
		for i := range byEnd {
			byEnd[i] = i
		}
		slices.SortStableFunc(byEnd, func(a, b int) int { return cmp.Compare(jobEnd(jobs[a]), jobEnd(jobs[b])) })
		shuffled := slices.Clone(byEnd)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		fast := collect(jobs, byEnd, warmUp, horizon, sloMS)
		slow := collect(jobs, shuffled, warmUp, horizon, sloMS)
		fastSum, slowSum := fast.Summary(), slow.Summary()
		if fb := fast.SortFallbacks(); fb != 0 {
			t.Fatalf("trial %d: time-ordered callbacks took %d sort fallbacks", trial, fb)
		}
		var logged []des.Time // the shuffled order's end log
		for _, i := range shuffled {
			if e := jobEnd(jobs[i]); e != des.Never {
				logged = append(logged, e)
			}
		}
		if !slices.IsSorted(logged) && slow.SortFallbacks() == 0 {
			t.Fatalf("trial %d: out-of-order callbacks took no sort fallback", trial)
		}
		if !reflect.DeepEqual(fastSum, slowSum) {
			t.Fatalf("trial %d: fast path and sort fallback differ:\nfast %+v\nslow %+v", trial, fastSum, slowSum)
		}
		if want := EvaluateSLO(jobs, warmUp, horizon, sloMS); !reflect.DeepEqual(want, fastSum) {
			t.Fatalf("trial %d: collector differs from EvaluateSLO:\nwant %+v\ngot  %+v", trial, want, fastSum)
		}
	}
}

// BenchmarkCollectorSummary times Summary over a 300 s steady-state cell's
// worth of jobs — about 175,000 backlog intervals. "streamed" records every
// one in engine order, the case that needs no queue-depth sort; "replayed"
// records one cycle and Replays it to as many logical slots, which Summary
// reads as one block and a multiplicity. sorted/op counts the response times
// each Summary sorts.
func BenchmarkCollectorSummary(b *testing.B) {
	const n = 175000
	b.Run("streamed", func(b *testing.B) {
		period := des.FromMillis(10)
		task := mkTask(b, 0, period)
		horizon := des.Time(int64(period) * (n + 2))
		c := NewCollector(des.Second, horizon)
		var pending []*rt.Job
		for i := 0; i < n; i++ {
			now := des.Time(int64(period) * int64(i))
			// Each job finishes 2.5 periods after release, so three overlap.
			for len(pending) > 0 && pending[0].Release.Add(period*5/2) <= now {
				j := pending[0]
				pending[0] = nil // let the finished job go
				pending = pending[1:]
				end := j.Release.Add(period * 5 / 2)
				j.Stages[1].MarkFinished(end)
				c.JobDone(j, end)
			}
			j := task.NewJob(i, now)
			c.JobReleased(j, now)
			pending = append(pending, j)
		}
		benchSummary(b, c)
	})
	b.Run("replayed", func(b *testing.B) {
		ms := des.Millisecond
		p := cyclePlan{period: 40 * ms, cycle: []jobPlan{
			{release: 0, end: 50 * ms},
			{release: 5 * ms, end: 30 * ms},
			{release: 10 * ms, end: 35 * ms},
			{release: 20 * ms, end: 58 * ms},
		}}
		benchSummary(b, p.run(b, n/len(p.cycle), true))
	})
}

func benchSummary(b *testing.B, c *Collector) {
	c.Summary() // grow the reused buffers outside the timed loop
	sorted := c.SortedResponses()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Summary()
	}
	b.ReportMetric(float64(c.SortFallbacks()), "sort_fallbacks")
	b.ReportMetric(float64(sorted), "sorted/op")
}

// TestCollectorWindowing pins the window-edge semantics EvaluateSLO has: warm-up
// releases count toward FPS but not DMR, and a deadline at or past the
// horizon keeps a job out of the released count.
func TestCollectorWindowing(t *testing.T) {
	period := des.FromMillis(100)
	task := mkTask(t, 0, period)
	var jobs []*rt.Job
	for i := 0; i < 100; i++ {
		j := task.NewJob(i, des.Time(int64(period)*int64(i)))
		j.Stages[1].MarkFinished(j.Release.Add(des.FromMillis(10)))
		jobs = append(jobs, j)
	}
	warmUp, horizon := des.FromSeconds(2), des.FromSeconds(4)
	want := EvaluateSLO(jobs, warmUp, horizon, 0)
	perm := make([]int, len(jobs))
	for i := range perm {
		perm[i] = i
	}
	got := replay(jobs, perm, warmUp, horizon, 0)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("windowed summary differs:\nwant %+v\ngot  %+v", want, got)
	}
	if got.Released != 19 {
		t.Errorf("released = %d, want 19", got.Released)
	}
}

// TestCollectorResetReuses: a reset collector over a new window must behave
// like a fresh one and reuse its buffers.
func TestCollectorResetReuses(t *testing.T) {
	period := des.FromMillis(100)
	task := mkTask(t, 0, period)
	c := NewCollector(des.Second, des.FromSeconds(3))
	for i := 0; i < 25; i++ {
		j := task.NewJob(i, des.Time(int64(period)*int64(i)))
		c.JobReleased(j, j.Release)
		j.Stages[1].MarkFinished(j.Release.Add(des.FromMillis(10)))
		c.JobDone(j, j.FinishedAt)
	}
	first := c.Summary()

	c.Reset(des.Second, des.FromSeconds(3))
	for i := 0; i < 25; i++ {
		j := task.NewJob(i, des.Time(int64(period)*int64(i)))
		c.JobReleased(j, j.Release)
		j.Stages[1].MarkFinished(j.Release.Add(des.FromMillis(10)))
		c.JobDone(j, j.FinishedAt)
	}
	if second := c.Summary(); !reflect.DeepEqual(first, second) {
		t.Errorf("summary after Reset differs:\nfirst  %+v\nsecond %+v", first, second)
	}
}

// TestCollectorPanicsOnBadWindow mirrors EvaluateSLO's contract.
func TestCollectorPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad window did not panic")
		}
	}()
	NewCollector(des.Second, des.Second)
}
