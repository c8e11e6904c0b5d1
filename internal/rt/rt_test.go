package rt

import (
	"slices"
	"testing"
	"testing/quick"

	"sgprs/internal/des"
	"sgprs/internal/dnn"
)

func testTask(t *testing.T, nStages int) *Task {
	t.Helper()
	g := dnn.ResNet18(dnn.DefaultCostModel())
	stages, err := dnn.Partition(g, nStages)
	if err != nil {
		t.Fatal(err)
	}
	task, err := NewTask(0, "resnet18", g, stages, des.FromMillis(33.333), des.FromMillis(33.333), 0)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func TestNewTaskValidation(t *testing.T) {
	g := dnn.ResNet18(dnn.DefaultCostModel())
	stages, _ := dnn.Partition(g, 6)
	period := des.FromMillis(33.3)

	if _, err := NewTask(0, "x", g, nil, period, period, 0); err == nil {
		t.Error("no stages accepted")
	}
	if _, err := NewTask(0, "x", g, stages, 0, period, 0); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewTask(0, "x", g, stages, period, 0, 0); err == nil {
		t.Error("zero deadline accepted")
	}
	if _, err := NewTask(0, "x", g, stages, period, period+1, 0); err == nil {
		t.Error("deadline beyond period accepted (constrained-deadline model)")
	}
	if _, err := NewTask(0, "x", g, stages, period, period, -1); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := NewTask(0, "x", g, stages, period, period, 0); err != nil {
		t.Errorf("valid task rejected: %v", err)
	}
}

func TestSetWCETsAndVirtualDeadlines(t *testing.T) {
	task := testTask(t, 6)
	if task.Profiled() {
		t.Fatal("unprofiled task claims profiled")
	}
	wcets := []des.Time{
		des.FromMillis(1.0), des.FromMillis(2.0), des.FromMillis(3.0),
		des.FromMillis(2.0), des.FromMillis(1.0), des.FromMillis(1.0),
	}
	if err := task.SetWCETs(wcets); err != nil {
		t.Fatal(err)
	}
	if !task.Profiled() {
		t.Fatal("profiled task claims unprofiled")
	}
	if task.WCET() != des.FromMillis(10) {
		t.Errorf("total WCET = %v, want 10ms", task.WCET())
	}
	// Virtual deadlines are proportional to WCET and sum exactly to D.
	var sum des.Time
	for j := range wcets {
		sum += task.VirtualDeadline(j)
		if task.StageWCET(j) != wcets[j] {
			t.Errorf("stage %d WCET = %v, want %v", j, task.StageWCET(j), wcets[j])
		}
	}
	if sum != task.Deadline {
		t.Errorf("virtual deadlines sum to %v, want %v", sum, task.Deadline)
	}
	// Stage 2 has 3/10 of the WCET: its virtual deadline must be ~3/10 D.
	want := des.Time(float64(task.Deadline) * 0.3)
	got := task.VirtualDeadline(2)
	if got < want-1000 || got > want+1000 { // 1µs slack for integer math
		t.Errorf("stage 2 virtual deadline = %v, want ~%v", got, want)
	}
	// Utilization = 10ms / 33.333ms.
	if u := task.Utilization(); u < 0.29 || u > 0.31 {
		t.Errorf("utilization = %v, want ~0.3", u)
	}
}

func TestSetWCETsErrors(t *testing.T) {
	task := testTask(t, 6)
	if err := task.SetWCETs([]des.Time{1, 2}); err == nil {
		t.Error("wrong WCET count accepted")
	}
	if err := task.SetWCETs(make([]des.Time, 6)); err == nil {
		t.Error("zero WCET accepted")
	}
}

// TestSetWCETsReinstall: re-installing an equal table is free, and a
// different table re-derives everything a fresh task would derive from it.
func TestSetWCETsReinstall(t *testing.T) {
	ms := func(vs ...float64) []des.Time {
		out := make([]des.Time, len(vs))
		for i, v := range vs {
			out[i] = des.FromMillis(v)
		}
		return out
	}
	a := ms(1, 2, 3, 2, 1, 1)
	b := ms(4, 1, 1, 1, 1, 7)
	// timing snapshots what SetWCETs derives.
	timing := func(task *Task) []des.Time {
		out := []des.Time{task.WCET()}
		for j := range task.Stages {
			out = append(out, task.StageWCET(j), task.VirtualDeadline(j))
		}
		return out
	}
	fresh := func(wcets []des.Time) []des.Time {
		task := testTask(t, 6)
		if err := task.SetWCETs(wcets); err != nil {
			t.Fatal(err)
		}
		return timing(task)
	}

	task := testTask(t, 6)
	if err := task.SetWCETs(a); err != nil {
		t.Fatal(err)
	}
	equal := append([]des.Time(nil), a...)
	if n := testing.AllocsPerRun(100, func() {
		if err := task.SetWCETs(equal); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("re-installing an equal table allocates %v times, want 0", n)
	}
	a[0] = des.FromMillis(9) // the task keeps its own copy
	if got, want := timing(task), fresh(equal); !slices.Equal(got, want) {
		t.Fatalf("after equal re-install: %v, want %v", got, want)
	}

	if err := task.SetWCETs(b); err != nil {
		t.Fatal(err)
	}
	if got, want := timing(task), fresh(b); !slices.Equal(got, want) {
		t.Fatalf("after a different table: %v, want %v", got, want)
	}
	if err := task.SetWCETs(make([]des.Time, 6)); err == nil {
		t.Fatal("zero WCET accepted")
	}
	if got, want := timing(task), fresh(b); !slices.Equal(got, want) {
		t.Fatalf("a rejected table changed the task: %v, want %v", got, want)
	}
}

func TestStageLevels(t *testing.T) {
	task := testTask(t, 6)
	for j := 0; j < 5; j++ {
		if task.StageLevel(j) != LevelLow {
			t.Errorf("stage %d level = %v, want low", j, task.StageLevel(j))
		}
	}
	if task.StageLevel(5) != LevelHigh {
		t.Errorf("last stage level = %v, want high", task.StageLevel(5))
	}
	if LevelHigh <= LevelMedium || LevelMedium <= LevelLow {
		t.Error("level ordering broken")
	}
	if LevelLow.String() != "low" || LevelMedium.String() != "medium" || LevelHigh.String() != "high" {
		t.Error("level names wrong")
	}
	if Level(42).String() != "level(42)" {
		t.Error("unknown level name wrong")
	}
}

func TestNewJobDeadlines(t *testing.T) {
	task := testTask(t, 6)
	wcets := make([]des.Time, 6)
	for i := range wcets {
		wcets[i] = des.FromMillis(1)
	}
	if err := task.SetWCETs(wcets); err != nil {
		t.Fatal(err)
	}
	release := des.FromMillis(100)
	job := task.NewJob(3, release)
	if job.Deadline != release.Add(task.Deadline) {
		t.Errorf("job deadline = %v", job.Deadline)
	}
	if len(job.Stages) != 6 {
		t.Fatalf("job has %d stages", len(job.Stages))
	}
	// Monotone stage deadlines, last equals job deadline.
	prev := release
	for _, s := range job.Stages {
		if s.Deadline <= prev {
			t.Errorf("stage %d deadline %v not after %v", s.Index, s.Deadline, prev)
		}
		prev = s.Deadline
	}
	if last := job.Stages[5].Deadline; last != job.Deadline {
		t.Errorf("last stage deadline %v != job deadline %v", last, job.Deadline)
	}
	// Levels copied from the offline assignment.
	if job.Stages[0].Level != LevelLow || job.Stages[5].Level != LevelHigh {
		t.Error("stage job levels wrong")
	}
}

func TestNewJobUnprofiledPanics(t *testing.T) {
	task := testTask(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("NewJob on unprofiled task did not panic")
		}
	}()
	task.NewJob(0, 0)
}

func TestJobLifecycle(t *testing.T) {
	task := testTask(t, 3)
	task.SetWCETs([]des.Time{des.FromMillis(2), des.FromMillis(2), des.FromMillis(2)})
	job := task.NewJob(0, 0)

	s0 := job.Stages[0]
	s0.MarkReady(0)
	if !s0.Ready || s0.ReadyAt != 0 {
		t.Error("MarkReady")
	}
	s0.MarkStarted(des.FromMillis(1))
	if !s0.Started {
		t.Error("MarkStarted")
	}
	s0.MarkFinished(des.FromMillis(3))
	if !s0.Finished || job.Done {
		t.Error("first stage finish should not complete job")
	}
	job.Stages[1].MarkFinished(des.FromMillis(6))
	last := job.Stages[2]
	last.MarkFinished(des.FromMillis(9))
	if !job.Done || job.FinishedAt != des.FromMillis(9) {
		t.Error("last stage finish should complete job")
	}
	if job.ResponseTime() != des.FromMillis(9) {
		t.Errorf("response time = %v", job.ResponseTime())
	}
	if job.Missed(des.FromMillis(9)) {
		t.Error("job met its 33.3ms deadline but reported missed")
	}
	if lateness := job.FinishedAt - job.Deadline; lateness >= 0 {
		t.Errorf("lateness = %v, want negative", lateness)
	}
}

func TestMissedSemantics(t *testing.T) {
	task := testTask(t, 2)
	task.SetWCETs([]des.Time{des.FromMillis(5), des.FromMillis(5)})
	job := task.NewJob(0, 0)

	// Unfinished job: missed only once now passes the deadline.
	if job.Missed(job.Deadline) {
		t.Error("job reported missed exactly at deadline")
	}
	if !job.Missed(job.Deadline + 1) {
		t.Error("job not reported missed after deadline")
	}
	// Finished late: missed regardless of query instant.
	job.Stages[1].MarkFinished(job.Deadline + des.FromMillis(1))
	if !job.Missed(0) {
		t.Error("late-finished job not reported missed")
	}

	s := job.Stages[0]
	if s.MissedBy(s.Deadline) {
		t.Error("stage reported missed exactly at deadline")
	}
	if !s.MissedBy(s.Deadline + 1) {
		t.Error("stage not reported missed after deadline")
	}
	s.MarkFinished(s.Deadline - 1)
	if s.MissedBy(des.FromMillis(1e6)) {
		t.Error("stage that finished early reported missed later")
	}
}

func TestStringers(t *testing.T) {
	task := testTask(t, 2)
	task.SetWCETs([]des.Time{des.FromMillis(5), des.FromMillis(5)})
	job := task.NewJob(17, 0)
	if got := job.String(); got != "τ0#17" {
		t.Errorf("job string = %q", got)
	}
	if got := job.Stages[1].String(); got != "τ0#17.s1" {
		t.Errorf("stage string = %q", got)
	}
	if got := task.String(); got == "" {
		t.Error("task string empty")
	}
}

// Property: for any positive WCET vector, virtual deadlines are positive,
// ordered, and sum exactly to the task deadline.
func TestVirtualDeadlinePartitionProperty(t *testing.T) {
	g := dnn.ResNet18(dnn.DefaultCostModel())
	f := func(raw []uint16) bool {
		n := len(raw)
		if n == 0 || n > 12 {
			return true
		}
		stages, err := dnn.Partition(g, n)
		if err != nil {
			return true // graph may not admit n stages; not this property
		}
		task, err := NewTask(0, "p", g, stages, des.FromMillis(40), des.FromMillis(33), 0)
		if err != nil {
			return false
		}
		wcets := make([]des.Time, n)
		for i, r := range raw[:n] {
			wcets[i] = des.Time(r)*des.Microsecond + des.Microsecond
		}
		if err := task.SetWCETs(wcets); err != nil {
			return false
		}
		var sum des.Time
		for j := 0; j < n; j++ {
			d := task.VirtualDeadline(j)
			if d <= 0 {
				return false
			}
			sum += d
		}
		return sum == task.Deadline
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestJobWorkScaleDefaultsToOne(t *testing.T) {
	task := testTask(t, 2)
	task.SetWCETs([]des.Time{des.Millisecond, des.Millisecond})
	if job := task.NewJob(0, 0); job.WorkScale != 1 {
		t.Errorf("WorkScale = %v, want 1", job.WorkScale)
	}
}
