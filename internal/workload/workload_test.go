package workload

import (
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/rt"
)

func specResNet() TaskSpec {
	return TaskSpec{
		Name:   "resnet18",
		Graph:  dnn.ResNet18(dnn.DefaultCostModel()),
		Stages: 6,
		FPS:    30,
	}
}

func TestIdenticalSpecs(t *testing.T) {
	specs := Identical(5, specResNet(), false)
	if len(specs) != 5 {
		t.Fatalf("got %d specs", len(specs))
	}
	for i, sp := range specs {
		if sp.Offset != 0 {
			t.Errorf("unstaggered spec %d has offset %v", i, sp.Offset)
		}
		if sp.FPS != 30 || sp.Stages != 6 {
			t.Errorf("spec %d lost fields", i)
		}
	}
	if specs[0].Name == specs[1].Name {
		t.Error("specs share a name")
	}
}

func TestIdenticalStaggered(t *testing.T) {
	specs := Identical(4, specResNet(), true)
	period := des.FromSeconds(1.0 / 30)
	for i, sp := range specs {
		want := des.Time(int64(period) * int64(i) / 4)
		if sp.Offset != want {
			t.Errorf("spec %d offset = %v, want %v", i, sp.Offset, want)
		}
	}
}

func TestBuild(t *testing.T) {
	tasks, err := Build(Identical(3, specResNet(), false))
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 3 {
		t.Fatalf("got %d tasks", len(tasks))
	}
	for i, task := range tasks {
		if task.ID != i {
			t.Errorf("task %d has ID %d", i, task.ID)
		}
		if len(task.Stages) != 6 {
			t.Errorf("task %d has %d stages", i, len(task.Stages))
		}
		if task.Period != des.FromSeconds(1.0/30) {
			t.Errorf("task %d period %v", i, task.Period)
		}
		if task.Deadline != task.Period {
			t.Errorf("implicit deadline expected, got %v", task.Deadline)
		}
		if task.Profiled() {
			t.Error("Build must not profile")
		}
	}
}

func TestBuildDeadlineFactor(t *testing.T) {
	sp := specResNet()
	sp.DeadlineFactor = 0.5
	tasks, err := Build([]TaskSpec{sp})
	if err != nil {
		t.Fatal(err)
	}
	if tasks[0].Deadline != tasks[0].Period/2 {
		t.Errorf("deadline = %v, want half period", tasks[0].Deadline)
	}
}

func TestBuildErrors(t *testing.T) {
	bad := specResNet()
	bad.FPS = 0
	if _, err := Build([]TaskSpec{bad}); err == nil {
		t.Error("zero fps accepted")
	}
	bad = specResNet()
	bad.Graph = nil
	if _, err := Build([]TaskSpec{bad}); err == nil {
		t.Error("nil graph accepted")
	}
	bad = specResNet()
	bad.Stages = 10000
	if _, err := Build([]TaskSpec{bad}); err == nil {
		t.Error("impossible stage count accepted")
	}
	bad = specResNet()
	bad.DeadlineFactor = 1.5
	if _, err := Build([]TaskSpec{bad}); err == nil {
		t.Error("deadline factor > 1 accepted")
	}
}

// genRecorder counts releases without doing any scheduling.
type genRecorder struct{ n int }

func (g *genRecorder) OnRelease(*rt.Job, des.Time) { g.n++ }

// jobLog is a JobSink that keeps every released job, in release order. With
// no pool attached the generator never recycles them, so the log can be
// read after the run.
type jobLog struct{ jobs []*rt.Job }

func (l *jobLog) JobReleased(j *rt.Job, _ des.Time) { l.jobs = append(l.jobs, j) }
func (l *jobLog) JobDone(*rt.Job, des.Time)         {}
func (l *jobLog) JobDiscarded(*rt.Job, des.Time)    {}

// logJobs attaches a fresh jobLog to gen; call before Start.
func logJobs(gen *Generator) *jobLog {
	l := &jobLog{}
	gen.SetSink(l)
	return l
}

func TestGeneratorPeriodicReleases(t *testing.T) {
	tasks, err := Build(Identical(2, specResNet(), false))
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		wcets := make([]des.Time, len(task.Stages))
		for i := range wcets {
			wcets[i] = des.Millisecond
		}
		if err := task.SetWCETs(wcets); err != nil {
			t.Fatal(err)
		}
	}
	eng := des.NewEngine()
	rec := &genRecorder{}
	gen := NewGenerator(eng, rec)
	log := logJobs(gen)
	horizon := des.FromSeconds(1)
	gen.Start(tasks, horizon)
	eng.RunUntil(horizon)

	// 30 fps for 1 s from offset 0. The period rounds to 33333333 ns,
	// so release 30 lands at 0.9999... s, just inside the horizon:
	// 31 releases per task.
	if got := len(log.jobs); got != 62 {
		t.Fatalf("released %d jobs, want 62 (2 tasks x 31)", got)
	}
	// Job indices and releases are periodic per task.
	per := map[int]int{}
	for _, j := range log.jobs {
		want := j.Task.Offset.Add(des.Time(int64(j.Task.Period) * int64(j.Index)))
		if j.Release != want {
			t.Fatalf("job %s released at %v, want %v", j, j.Release, want)
		}
		per[j.Task.ID]++
	}
	if per[0] != 31 || per[1] != 31 {
		t.Errorf("per-task releases = %v", per)
	}
	if rec.n != 62 {
		t.Errorf("scheduler saw %d releases, want 62", rec.n)
	}
}

func TestGeneratorStaggeredOffsets(t *testing.T) {
	tasks, err := Build(Identical(3, specResNet(), true))
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		wcets := make([]des.Time, len(task.Stages))
		for i := range wcets {
			wcets[i] = des.Millisecond
		}
		task.SetWCETs(wcets)
	}
	eng := des.NewEngine()
	gen := NewGenerator(eng, &genRecorder{})
	log := logJobs(gen)
	gen.Start(tasks, des.FromSeconds(0.1))
	eng.RunUntil(des.FromSeconds(0.1))
	for _, j := range log.jobs {
		if j.Index == 0 && j.Release != j.Task.Offset {
			t.Errorf("job %s first release %v != offset %v", j, j.Release, j.Task.Offset)
		}
	}
}

func TestReleaseJitterShiftsReleases(t *testing.T) {
	sp := specResNet()
	sp.ReleaseJitter = des.FromMillis(5)
	tasks, err := Build([]TaskSpec{sp})
	if err != nil {
		t.Fatal(err)
	}
	wcets := make([]des.Time, len(tasks[0].Stages))
	for i := range wcets {
		wcets[i] = des.Millisecond
	}
	tasks[0].SetWCETs(wcets)
	eng := des.NewEngine()
	gen := newSeeded(eng, &genRecorder{}, 7)
	log := logJobs(gen)
	gen.Start(tasks, des.FromSeconds(1))
	eng.RunUntil(des.FromSeconds(1))

	period := tasks[0].Period
	jittered := 0
	for _, j := range log.jobs {
		nominal := des.Time(int64(period) * int64(j.Index))
		off := j.Release - nominal
		if off < 0 || off >= des.FromMillis(5) {
			t.Fatalf("job %d jitter %v outside [0, 5ms)", j.Index, off)
		}
		if off > 0 {
			jittered++
		}
	}
	if jittered == 0 {
		t.Error("no release was actually jittered")
	}
}

func TestWorkVariationStampsJobs(t *testing.T) {
	sp := specResNet()
	sp.WorkVariation = 0.2
	tasks, err := Build([]TaskSpec{sp})
	if err != nil {
		t.Fatal(err)
	}
	wcets := make([]des.Time, len(tasks[0].Stages))
	for i := range wcets {
		wcets[i] = des.Millisecond
	}
	tasks[0].SetWCETs(wcets)
	eng := des.NewEngine()
	gen := newSeeded(eng, &genRecorder{}, 7)
	log := logJobs(gen)
	gen.Start(tasks, des.FromSeconds(1))
	eng.RunUntil(des.FromSeconds(1))

	varied := 0
	for _, j := range log.jobs {
		if j.WorkScale < 0.5 || j.WorkScale > 1.6+1e-9 {
			t.Fatalf("work scale %v outside clamp", j.WorkScale)
		}
		if j.WorkScale != 1 {
			varied++
		}
	}
	if varied == 0 {
		t.Error("no job received a varied work scale")
	}
}

// TestIdenticalRejectsInvalidFPSLater: Identical must not derive Inf/NaN
// periods from a non-positive FPS (the old 1/FPS-before-validation bug);
// the invalid spec flows through for Build to reject cleanly.
func TestIdenticalRejectsInvalidFPSLater(t *testing.T) {
	for _, fps := range []float64{0, -30} {
		sp := specResNet()
		sp.FPS = fps
		specs := Identical(3, sp, true) // stagger forces the period path
		for i, got := range specs {
			if got.Offset != 0 {
				t.Errorf("fps=%v: spec %d has offset %v from an invalid period", fps, i, got.Offset)
			}
		}
		if _, err := Build(specs); err == nil {
			t.Errorf("fps=%v: Build accepted invalid rate", fps)
		}
	}
}

// sinkRecorder counts the streamed lifecycle.
type sinkRecorder struct {
	released, done, discarded int
}

func (s *sinkRecorder) JobReleased(j *rt.Job, now des.Time) { s.released++ }
func (s *sinkRecorder) JobDone(j *rt.Job, now des.Time)     { s.done++ }
func (s *sinkRecorder) JobDiscarded(j *rt.Job, now des.Time) {
	s.discarded++
}

// completingSched finishes every job's stages at release time — the
// simplest scheduler that drives the full streamed lifecycle.
type completingSched struct{}

func (completingSched) OnRelease(j *rt.Job, now des.Time) {
	for _, st := range j.Stages {
		st.MarkFinished(now)
	}
}

// TestGeneratorStreamsAndRecycles: with a sink and pool attached the
// generator streams every release and completion, and recycles jobs through a pool bounded by the in-flight count (1 here —
// each job completes before the next release).
func TestGeneratorStreamsAndRecycles(t *testing.T) {
	tasks, err := Build(Identical(2, specResNet(), false))
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		wcets := make([]des.Time, len(task.Stages))
		for i := range wcets {
			wcets[i] = des.Millisecond
		}
		task.SetWCETs(wcets)
	}
	eng := des.NewEngine()
	gen := NewGenerator(eng, completingSched{})
	sink := &sinkRecorder{}
	var pool rt.JobPool
	gen.SetSink(sink)
	gen.UsePool(&pool)
	horizon := des.FromSeconds(1)
	gen.Start(tasks, horizon)
	eng.RunUntil(horizon)

	if sink.released != 62 || sink.done != 62 || sink.discarded != 0 {
		t.Errorf("streamed %d released / %d done / %d discarded, want 62/62/0",
			sink.released, sink.done, sink.discarded)
	}
	// Every job completed synchronously at release, so the pool never
	// holds more than the two structs (one per task) in steady state.
	if pool.Len() > 2 {
		t.Errorf("pool grew to %d jobs; want ≤ 2 (O(in-flight), not O(released))", pool.Len())
	}
}

func TestBuildRejectsBadJitter(t *testing.T) {
	sp := specResNet()
	sp.ReleaseJitter = des.FromSeconds(1) // ≥ period
	if _, err := Build([]TaskSpec{sp}); err == nil {
		t.Error("jitter >= period accepted")
	}
	sp = specResNet()
	sp.WorkVariation = -1
	if _, err := Build([]TaskSpec{sp}); err == nil {
		t.Error("negative variation accepted")
	}
}

// newSeeded returns a generator wired to eng and s with the given seed.
func newSeeded(eng *des.Engine, s ReleaseHandler, seed uint64) *Generator {
	g := &Generator{}
	g.Reset(eng, s, seed)
	return g
}

// NewGenerator wires a generator to the engine and scheduler with random
// seed 1 (see Reset).
func NewGenerator(eng *des.Engine, s ReleaseHandler) *Generator {
	g := &Generator{}
	g.Reset(eng, s, 1)
	return g
}
