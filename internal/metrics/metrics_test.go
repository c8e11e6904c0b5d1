package metrics

import (
	"math"
	"strings"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/rt"
)

// mkJobs builds n jobs of one synthetic task released every period from
// offset 0, optionally finishing each after resp (zero means unfinished).
func mkJobs(t *testing.T, n int, period, resp des.Time) []*rt.Job {
	t.Helper()
	g := dnn.TinyCNN(dnn.DefaultCostModel())
	stages, err := dnn.Partition(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	task, err := rt.NewTask(0, "t", g, stages, period, period, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := task.SetWCETs([]des.Time{des.Millisecond, des.Millisecond}); err != nil {
		t.Fatal(err)
	}
	jobs := make([]*rt.Job, n)
	for i := range jobs {
		release := des.Time(int64(period) * int64(i))
		jobs[i] = task.NewJob(i, release)
		if resp > 0 {
			jobs[i].Stages[1].MarkFinished(release.Add(resp))
		}
	}
	return jobs
}

func TestEvaluateAllOnTime(t *testing.T) {
	period := des.FromMillis(100)
	jobs := mkJobs(t, 100, period, des.FromMillis(20)) // 10 s of releases
	sum := EvaluateSLO(jobs, des.Second, des.FromSeconds(9), 0)
	if sum.Missed != 0 || sum.DMR != 0 {
		t.Errorf("missed=%d dmr=%v, want zero", sum.Missed, sum.DMR)
	}
	// 80 completions in an 8-second window → 10 FPS.
	if math.Abs(sum.TotalFPS-10) > 0.2 {
		t.Errorf("fps = %v, want ~10", sum.TotalFPS)
	}
	if sum.RespMeanMS < 19.9 || sum.RespMeanMS > 20.1 {
		t.Errorf("mean response = %v, want 20ms", sum.RespMeanMS)
	}
	if sum.RespP99MS < 19.9 || sum.RespMaxMS < 19.9 {
		t.Errorf("percentiles wrong: %+v", sum)
	}
}

func TestEvaluateAllLate(t *testing.T) {
	period := des.FromMillis(100)
	jobs := mkJobs(t, 100, period, des.FromMillis(150)) // responses beyond deadline
	sum := EvaluateSLO(jobs, des.Second, des.FromSeconds(9), 0)
	if sum.Released == 0 {
		t.Fatal("nothing released")
	}
	if sum.Missed != sum.Released {
		t.Errorf("missed=%d of %d, want all", sum.Missed, sum.Released)
	}
	if sum.DMR != 1 {
		t.Errorf("dmr = %v, want 1", sum.DMR)
	}
	// Late completions still count toward FPS.
	if sum.Completed == 0 || sum.TotalFPS == 0 {
		t.Error("late completions must count toward total FPS")
	}
}

func TestEvaluateUnfinishedCountMissed(t *testing.T) {
	period := des.FromMillis(100)
	jobs := mkJobs(t, 100, period, 0) // never finish
	sum := EvaluateSLO(jobs, des.Second, des.FromSeconds(9), 0)
	if sum.Completed != 0 || sum.TotalFPS != 0 {
		t.Error("unfinished jobs counted as completed")
	}
	if sum.Missed != sum.Released || sum.DMR != 1 {
		t.Errorf("unfinished jobs must be missed: %+v", sum)
	}
}

func TestEvaluateWindowing(t *testing.T) {
	period := des.FromMillis(100)
	jobs := mkJobs(t, 100, period, des.FromMillis(10))
	sum := EvaluateSLO(jobs, des.FromSeconds(2), des.FromSeconds(4), 0)
	// Released window: release ≥ 2 s and deadline < 4 s → releases in
	// [2.0, 3.9): 19 jobs.
	if sum.Released != 19 {
		t.Errorf("released = %d, want 19", sum.Released)
	}
	// Completions within [2, 4): releases 2.0..3.9 finish at +10ms, plus
	// release 1.99s finishing at 2.0s boundary is inside too.
	if sum.Completed < 19 || sum.Completed > 21 {
		t.Errorf("completed = %d", sum.Completed)
	}
}

func TestEvaluatePanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad window did not panic")
		}
	}()
	EvaluateSLO(nil, des.Second, des.Second, 0)
}

func TestEvaluateEmpty(t *testing.T) {
	sum := EvaluateSLO(nil, 0, des.Second, 0)
	if sum.TotalFPS != 0 || sum.DMR != 0 || sum.Released != 0 {
		t.Errorf("empty evaluate = %+v", sum)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{TotalFPS: 750.4, DMR: 0.17, Released: 100, Completed: 90, Missed: 17}
	if got := s.String(); !strings.Contains(got, "fps=750.4") || !strings.Contains(got, "dmr=0.1700") {
		t.Errorf("summary string = %q", got)
	}
}

func TestPivotPoint(t *testing.T) {
	series := []Point{
		{Tasks: 4, Summary: Summary{Missed: 0}},
		{Tasks: 8, Summary: Summary{Missed: 0}},
		{Tasks: 12, Summary: Summary{Missed: 0}},
		{Tasks: 16, Summary: Summary{Missed: 5}},
		{Tasks: 20, Summary: Summary{Missed: 0}}, // noise after the pivot is ignored
	}
	if got := PivotPoint(series); got != 12 {
		t.Errorf("pivot = %d, want 12", got)
	}
	if got := PivotPoint(nil); got != 0 {
		t.Errorf("empty pivot = %d, want 0", got)
	}
	allMiss := []Point{{Tasks: 1, Summary: Summary{Missed: 1}}}
	if got := PivotPoint(allMiss); got != 0 {
		t.Errorf("all-missing pivot = %d, want 0", got)
	}
}

func TestSaturationAndFinalFPS(t *testing.T) {
	series := []Point{
		{Tasks: 10, Summary: Summary{TotalFPS: 300}},
		{Tasks: 20, Summary: Summary{TotalFPS: 600}},
		{Tasks: 30, Summary: Summary{TotalFPS: 550}},
	}
	if got := SaturationFPS(series); got != 600 {
		t.Errorf("saturation = %v", got)
	}
	if got := FinalFPS(series); got != 550 {
		t.Errorf("final = %v", got)
	}
	if FinalFPS(nil) != 0 || SaturationFPS(nil) != 0 {
		t.Error("empty series should yield 0")
	}
}
