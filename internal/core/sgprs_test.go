package core

import (
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/gpu"
	"sgprs/internal/profile"
	"sgprs/internal/rt"
	"sgprs/internal/speedup"
)

// rig is a fully wired single-device test environment.
type rig struct {
	eng   *des.Engine
	dev   *gpu.Device
	sched *Scheduler
	tasks []*rt.Task
}

// newRig builds n profiled ResNet18 tasks at 30 fps with 6 stages and an
// attached SGPRS scheduler over the given context pool.
func newRig(t *testing.T, cfg Config, n int) *rig {
	t.Helper()
	eng := des.NewEngine()
	model := speedup.DefaultModel()
	gcfg := gpu.DefaultConfig()
	dev, err := gpu.NewDevice(eng, model, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	g := dnn.ResNet18(dnn.DefaultCostModel())
	dnn.Calibrate(g, model, speedup.DeviceSMs, 1.40)
	stages, err := dnn.Partition(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	period := des.FromSeconds(1.0 / 30)
	var tasks []*rt.Task
	prof := profile.New(model, gcfg)
	for i := 0; i < n; i++ {
		task, err := rt.NewTask(i, "resnet18", g, stages, period, period, 0)
		if err != nil {
			t.Fatal(err)
		}
		minSMs := cfg.ContextSMs[0]
		for _, s := range cfg.ContextSMs[1:] {
			if s < minSMs {
				minSMs = s
			}
		}
		if err := prof.ProfileTask(task, minSMs); err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Attach(eng, dev, tasks); err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, dev: dev, sched: s, tasks: tasks}
}

// kernelCount is a gpu.Hook counting retired kernels.
type kernelCount int

func (c *kernelCount) KernelLaunched(*gpu.Kernel, des.Time) {}
func (c *kernelCount) KernelRetired(*gpu.Kernel, des.Time)  { *c++ }

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{ContextSMs: []int{34}}); err == nil {
		t.Error("nameless config accepted")
	}
	if _, err := New(Config{Name: "x"}); err == nil {
		t.Error("contextless config accepted")
	}
	if _, err := New(Config{Name: "ok", ContextSMs: []int{34, 34}}); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// TestDefaultConfigMatchesPaper: a config naming only its pool runs the
// paper's layout — two high- then two low-priority streams per context, the
// creation order dispatch visits them in — with medium promotion on.
func TestDefaultConfigMatchesPaper(t *testing.T) {
	r := newRig(t, Config{Name: "sgprs", ContextSMs: []int{34, 34}}, 1)
	want := []struct {
		name string
		prio gpu.Priority
	}{{"hi0", gpu.HighPriority}, {"hi1", gpu.HighPriority}, {"lo0", gpu.LowPriority}, {"lo1", gpu.LowPriority}}
	for _, c := range r.dev.Contexts() {
		streams := c.Streams()
		if len(streams) != len(want) {
			t.Fatalf("%v has %d streams, want the paper's 2+2", c, len(streams))
		}
		for i, w := range want {
			if streams[i].Name() != w.name || streams[i].Priority() != w.prio {
				t.Errorf("%v stream %d = %s/%v, want %s/%v", c, i, streams[i].Name(), streams[i].Priority(), w.name, w.prio)
			}
		}
	}
	if r.sched.cfg.DisableMediumPromotion {
		t.Error("default must enable promotion")
	}
}

func TestAttachBuildsContextPool(t *testing.T) {
	r := newRig(t, Config{Name: "sgprs", ContextSMs: []int{34, 34}}, 1)
	ctxs := r.dev.Contexts()
	if len(ctxs) != 2 {
		t.Fatalf("contexts = %d", len(ctxs))
	}
	for _, c := range ctxs {
		if c.SMs() != 34 {
			t.Errorf("%v SMs = %d", c, c.SMs())
		}
	}
}

func TestAttachErrors(t *testing.T) {
	r := newRig(t, Config{Name: "sgprs", ContextSMs: []int{34}}, 1)
	if err := r.sched.Attach(r.eng, r.dev, r.tasks); err == nil {
		t.Error("double attach accepted")
	}
	s, _ := New(Config{Name: "x", ContextSMs: []int{34}})
	if err := s.Attach(des.NewEngine(), r.dev, nil); err == nil {
		t.Error("attach with no tasks accepted")
	}
	// Unprofiled task.
	g := dnn.TinyCNN(dnn.DefaultCostModel())
	stages, _ := dnn.Partition(g, 2)
	task, _ := rt.NewTask(0, "t", g, stages, des.Second, des.Second, 0)
	s2, _ := New(Config{Name: "y", ContextSMs: []int{34}})
	if err := s2.Attach(des.NewEngine(), r.dev, []*rt.Task{task}); err == nil {
		t.Error("unprofiled task accepted")
	}
	// Context larger than the device.
	s3, _ := New(Config{Name: "z", ContextSMs: []int{999}})
	eng := des.NewEngine()
	dev, _ := gpu.NewDevice(eng, speedup.DefaultModel(), gpu.DefaultConfig())
	if err := s3.Attach(eng, dev, r.tasks); err == nil {
		t.Error("oversized context accepted")
	}
}

func TestSingleJobMeetsDeadline(t *testing.T) {
	r := newRig(t, Config{Name: "sgprs", ContextSMs: []int{34, 34}}, 1)
	task := r.tasks[0]
	job := task.NewJob(0, 0)
	r.sched.OnRelease(job, 0)
	r.eng.Run()
	if !job.Done {
		t.Fatal("job did not complete")
	}
	if job.Missed(r.eng.Now()) {
		t.Errorf("isolated job missed its deadline: response %v", job.ResponseTime())
	}
	// All stages ran in order.
	prev := des.Time(0)
	for _, st := range job.Stages {
		if !st.Finished {
			t.Fatalf("stage %d unfinished", st.Index)
		}
		if st.FinishedAt < prev {
			t.Fatalf("stage %d finished before predecessor", st.Index)
		}
		prev = st.FinishedAt
	}
}

func TestStagesOfOneJobChainSequentially(t *testing.T) {
	r := newRig(t, Config{Name: "sgprs", ContextSMs: []int{68}}, 1)
	job := r.tasks[0].NewJob(0, 0)
	r.sched.OnRelease(job, 0)
	r.eng.Run()
	for j := 1; j < len(job.Stages); j++ {
		if job.Stages[j].StartedAt < job.Stages[j-1].FinishedAt {
			t.Fatalf("stage %d started at %v before stage %d finished at %v",
				j, job.Stages[j].StartedAt, j-1, job.Stages[j-1].FinishedAt)
		}
	}
}

func TestEmptyQueueRulePrefersLargestEmptyContext(t *testing.T) {
	cfg := Config{Name: "sgprs", ContextSMs: []int{20, 51}}
	r := newRig(t, cfg, 1)
	job := r.tasks[0].NewJob(0, 0)
	r.sched.OnRelease(job, 0)
	r.eng.Run()
	// With both contexts empty, rule 1 picks the larger (51 SMs), so the
	// first stage must have executed there. Verify via completed kernel
	// accounting: context 1 should have run at least one kernel.
	if r.dev.Contexts()[1].Busy() {
		t.Error("work left behind")
	}
	if !job.Done {
		t.Fatal("job incomplete")
	}
}

func TestMediumPromotionHappens(t *testing.T) {
	// Overload a tiny context pool so predecessors run late.
	cfg := Config{Name: "sgprs", ContextSMs: []int{10}}
	r := newRig(t, cfg, 22)
	for _, task := range r.tasks {
		r.sched.OnRelease(task.NewJob(0, 0), 0)
	}
	r.eng.RunUntil(des.FromSeconds(1))
	if r.sched.promotions == 0 {
		t.Error("no medium promotions under overload")
	}
}

func TestMediumPromotionCanBeDisabled(t *testing.T) {
	cfg := Config{Name: "sgprs", ContextSMs: []int{10}}
	cfg.DisableMediumPromotion = true
	r := newRig(t, cfg, 22)
	for _, task := range r.tasks {
		r.sched.OnRelease(task.NewJob(0, 0), 0)
	}
	r.eng.RunUntil(des.FromSeconds(1))
	if r.sched.promotions != 0 {
		t.Errorf("promotions = %d with promotion disabled", r.sched.promotions)
	}
}

func TestFrameReplacementUnderOverload(t *testing.T) {
	cfg := Config{Name: "sgprs", ContextSMs: []int{10}}
	r := newRig(t, cfg, 20)
	// Release three periods of jobs for every task at once; the pipeline
	// depth bound must replace stale held frames.
	for _, task := range r.tasks {
		for k := 0; k < 3; k++ {
			at := des.Time(k) * task.Period
			task := task
			k := k
			r.eng.ScheduleFunc(at, "rel", func(now des.Time) {
				r.sched.OnRelease(task.NewJob(k, now), now)
			})
		}
	}
	r.eng.RunUntil(des.FromSeconds(2))
	if r.sched.replaced == 0 && r.sched.Dropped() == 0 {
		t.Error("overload produced neither replacements nor drops")
	}
}

func TestLittleLawWindowSizing(t *testing.T) {
	r := newRig(t, Config{Name: "sgprs", ContextSMs: []int{34, 34}}, 1)
	// Window = deadline · aggCap / jobWork ≈ 33.3 · 23.3 / (1.40·gain).
	g := dnn.ResNet18(dnn.DefaultCostModel())
	dnn.Calibrate(g, speedup.DefaultModel(), speedup.DeviceSMs, 1.40)
	wantApprox := 33.333 * r.dev.Config().AggregateGainCap / g.TotalWorkMS()
	got := float64(r.sched.maxInflight)
	if got < wantApprox-1.5 || got > wantApprox+0.5 {
		t.Errorf("maxInflight = %v, want ≈ %.1f", got, wantApprox)
	}
}

func TestSustainedThroughputUnderOverload(t *testing.T) {
	// The headline SGPRS property: past the pivot, completions per second
	// hold near the window bound instead of collapsing.
	cfg := Config{Name: "sgprs", ContextSMs: []int{34, 34}}
	r := newRig(t, cfg, 30)
	var jobs []*rt.Job
	for _, task := range r.tasks {
		task := task
		var release func(k int)
		release = func(k int) {
			at := des.Time(int64(task.Period) * int64(k))
			if at >= des.FromSeconds(3) {
				return
			}
			r.eng.ScheduleFunc(at, "rel", func(now des.Time) {
				j := task.NewJob(k, now)
				jobs = append(jobs, j)
				r.sched.OnRelease(j, now)
				release(k + 1)
			})
		}
		release(0)
	}
	r.eng.RunUntil(des.FromSeconds(3))
	done := 0
	for _, j := range jobs {
		if j.Done && j.FinishedAt >= des.Second {
			done++
		}
	}
	fps := float64(done) / 2 // window [1s,3s)
	if fps < 600 || fps > 850 {
		t.Errorf("overload FPS = %.0f, want sustained ~750", fps)
	}
}

func TestZeroMissesAtLightLoad(t *testing.T) {
	cfg := Config{Name: "sgprs", ContextSMs: []int{34, 34}}
	r := newRig(t, cfg, 8)
	var jobs []*rt.Job
	for _, task := range r.tasks {
		task := task
		var release func(k int)
		release = func(k int) {
			at := des.Time(int64(task.Period) * int64(k))
			if at >= des.FromSeconds(2) {
				return
			}
			r.eng.ScheduleFunc(at, "rel", func(now des.Time) {
				j := task.NewJob(k, now)
				jobs = append(jobs, j)
				r.sched.OnRelease(j, now)
				release(k + 1)
			})
		}
		release(0)
	}
	r.eng.RunUntil(des.FromSeconds(2))
	for _, j := range jobs {
		if j.Deadline < des.FromSeconds(2) && j.Missed(des.FromSeconds(2)) {
			t.Fatalf("job %s missed at light load (8 tasks)", j)
		}
	}
}

func TestFlattenPrioritiesPureEDF(t *testing.T) {
	cfg := Config{Name: "sgprs", ContextSMs: []int{10}}
	cfg.FlattenPriorities = true
	r := newRig(t, cfg, 22)
	var finished kernelCount
	r.dev.AddHook(&finished)
	for _, task := range r.tasks {
		r.sched.OnRelease(task.NewJob(0, 0), 0)
	}
	r.eng.RunUntil(des.FromSeconds(1))
	if r.sched.promotions != 0 {
		t.Errorf("flattened scheduler promoted %d stages", r.sched.promotions)
	}
	// Work still flows: kernels completed despite the flat queue.
	if finished == 0 {
		t.Error("no kernels completed under flat EDF")
	}
}

func TestWorkScaleStretchesExecution(t *testing.T) {
	run := func(scale float64) des.Time {
		r := newRig(t, Config{Name: "sgprs", ContextSMs: []int{68}}, 1)
		job := r.tasks[0].NewJob(0, 0)
		job.WorkScale = scale
		r.sched.OnRelease(job, 0)
		r.eng.Run()
		if !job.Done {
			t.Fatal("job incomplete")
		}
		return job.FinishedAt
	}
	base := run(1)
	double := run(2)
	ratio := float64(double) / float64(base)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("2x work scale changed latency by %.2fx, want ~2", ratio)
	}
}
