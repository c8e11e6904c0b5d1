package sched

import (
	"testing"
	"testing/quick"

	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/rt"
)

// mkStage builds a standalone stage job with the given deadline and level.
func mkStage(t testing.TB, taskID, jobIdx, stageIdx int, deadline des.Time, level rt.Level) *rt.StageJob {
	t.Helper()
	g := dnn.TinyCNN(dnn.DefaultCostModel())
	stages, err := dnn.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	task, err := rt.NewTask(taskID, "t", g, stages, des.FromMillis(100), des.FromMillis(100), 0)
	if err != nil {
		t.Fatal(err)
	}
	wcets := make([]des.Time, 4)
	for i := range wcets {
		wcets[i] = des.Millisecond
	}
	if err := task.SetWCETs(wcets); err != nil {
		t.Fatal(err)
	}
	job := task.NewJob(jobIdx, 0)
	st := job.Stages[stageIdx]
	st.Deadline = deadline
	st.Level = level
	return st
}

func TestEDFQueueOrdersByDeadline(t *testing.T) {
	var q EDFQueue
	deadlines := []des.Time{30, 10, 20, 5, 25}
	for i, d := range deadlines {
		q.Push(mkStage(t, i, 0, 0, d*des.Millisecond, rt.LevelLow))
	}
	if q.Len() != 5 {
		t.Fatalf("len = %d", q.Len())
	}
	prev := des.Time(-1)
	for q.Len() > 0 {
		s := q.Pop()
		if s.Deadline < prev {
			t.Fatalf("popped %v after %v", s.Deadline, prev)
		}
		prev = s.Deadline
	}
	if q.Pop() != nil || q.Peek() != nil {
		t.Error("empty queue should return nil")
	}
}

func TestEDFQueueDeterministicTieBreak(t *testing.T) {
	// Same deadline: order by task ID, then job index, then stage index.
	var q EDFQueue
	d := des.FromMillis(10)
	s3 := mkStage(t, 3, 0, 0, d, rt.LevelLow)
	s1a := mkStage(t, 1, 1, 0, d, rt.LevelLow)
	s1b := mkStage(t, 1, 0, 2, d, rt.LevelLow)
	s1c := mkStage(t, 1, 0, 1, d, rt.LevelLow)
	q.Push(s3)
	q.Push(s1a)
	q.Push(s1b)
	q.Push(s1c)
	want := []*rt.StageJob{s1c, s1b, s1a, s3} // job 0 stage1, job 0 stage2, job 1, task 3
	for i, w := range want {
		got := q.Pop()
		if got != w {
			t.Fatalf("pop %d = %v, want %v", i, got, w)
		}
	}
}

func TestEDFQueuePeek(t *testing.T) {
	var q EDFQueue
	a := mkStage(t, 0, 0, 0, des.FromMillis(20), rt.LevelLow)
	b := mkStage(t, 1, 0, 0, des.FromMillis(10), rt.LevelLow)
	q.Push(a)
	q.Push(b)
	if q.Peek() != b {
		t.Error("peek should return earliest deadline")
	}
	if q.Len() != 2 {
		t.Error("peek must not remove")
	}
}

func TestMultiLevelQueuePriorityOrder(t *testing.T) {
	var m MultiLevelQueue
	lo := mkStage(t, 0, 0, 0, des.FromMillis(1), rt.LevelLow) // earliest deadline overall
	md := mkStage(t, 1, 0, 0, des.FromMillis(50), rt.LevelMedium)
	hi := mkStage(t, 2, 0, 3, des.FromMillis(99), rt.LevelHigh)
	m.Push(lo)
	m.Push(md)
	m.Push(hi)
	if m.Len() != 3 || m.LenLevel(rt.LevelHigh) != 1 {
		t.Fatalf("len=%d high=%d", m.Len(), m.LenLevel(rt.LevelHigh))
	}
	// Level beats deadline: high first despite the latest deadline.
	if got := m.Pop(); got != hi {
		t.Fatalf("first pop = %v, want high", got)
	}
	if got := m.Pop(); got != md {
		t.Fatalf("second pop = %v, want medium", got)
	}
	if got := m.Pop(); got != lo {
		t.Fatalf("third pop = %v, want low", got)
	}
	if m.Pop() != nil {
		t.Error("empty multilevel pop should be nil")
	}
}

func TestMultiLevelQueuePopAtMost(t *testing.T) {
	var m MultiLevelQueue
	hi := mkStage(t, 0, 0, 3, des.FromMillis(5), rt.LevelHigh)
	lo := mkStage(t, 1, 0, 0, des.FromMillis(5), rt.LevelLow)
	m.Push(hi)
	m.Push(lo)
	// A pop capped below high must skip the high stage.
	if got := m.PopAtMost(rt.LevelMedium, rt.LevelLow); got != lo {
		t.Fatalf("PopAtMost(medium,low) = %v, want low stage", got)
	}
	// A pop floored above low must not return low stages.
	m.Push(lo)
	if got := m.PopAtMost(rt.LevelHigh, rt.LevelMedium); got != hi {
		t.Fatalf("PopAtMost(high,medium) = %v, want high stage", got)
	}
	if got := m.PopAtMost(rt.LevelHigh, rt.LevelMedium); got != nil {
		t.Fatalf("PopAtMost should not reach the low level, got %v", got)
	}
}

func TestMultiLevelQueuePeek(t *testing.T) {
	var m MultiLevelQueue
	if m.Peek() != nil {
		t.Error("empty peek should be nil")
	}
	lo := mkStage(t, 0, 0, 0, des.FromMillis(1), rt.LevelLow)
	hi := mkStage(t, 1, 0, 3, des.FromMillis(90), rt.LevelHigh)
	m.Push(lo)
	m.Push(hi)
	if m.Peek() != hi {
		t.Error("peek should see highest level first")
	}
	if m.Len() != 2 {
		t.Error("peek must not remove")
	}
}

// Property: the EDF queue is a total order — popping returns deadlines in
// non-decreasing order for arbitrary insertions.
func TestEDFOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 40 {
			raw = raw[:40]
		}
		var q EDFQueue
		for i, r := range raw {
			q.Push(mkStage(t, i, 0, 0, des.Time(r)*des.Microsecond, rt.LevelLow))
		}
		prev := des.Time(-1)
		for q.Len() > 0 {
			s := q.Pop()
			if s.Deadline < prev {
				return false
			}
			prev = s.Deadline
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
