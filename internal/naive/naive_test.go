package naive

import (
	"math"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/gpu"
	"sgprs/internal/profile"
	"sgprs/internal/rt"
	"sgprs/internal/speedup"
)

func newRig(t *testing.T, cfg Config, n int) (*des.Engine, *gpu.Device, *Scheduler, []*rt.Task) {
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
	prof := profile.New(model, gcfg)
	var tasks []*rt.Task
	for i := 0; i < n; i++ {
		task, err := rt.NewTask(i, "resnet18", g, stages, period, period, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := prof.ProfileTask(task, cfg.ContextSMs[0]); err != nil {
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
	return eng, dev, s, tasks
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{ContextSMs: []int{34}}); err == nil {
		t.Error("nameless config accepted")
	}
	if _, err := New(Config{Name: "x"}); err == nil {
		t.Error("partitionless config accepted")
	}
	if _, err := New(Config{Name: "naive", ContextSMs: []int{34, 34}}); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestStaticPinningRoundRobin(t *testing.T) {
	_, dev, s, tasks := newRig(t, Config{Name: "naive", ContextSMs: []int{34, 34}}, 5)
	if len(dev.Contexts()) != 2 {
		t.Fatalf("partitions = %d", len(dev.Contexts()))
	}
	// Tasks 0,2,4 on partition 0; tasks 1,3 on partition 1.
	if got := len(s.parts[0].tasks); got != 3 {
		t.Errorf("partition 0 holds %d tasks, want 3", got)
	}
	if got := len(s.parts[1].tasks); got != 2 {
		t.Errorf("partition 1 holds %d tasks, want 2", got)
	}
	for i, task := range tasks {
		if s.homes[task.ID] != s.parts[i%2] {
			t.Errorf("task %d pinned to wrong partition", i)
		}
	}
}

// kernelCount is a gpu.Hook counting retired kernels.
type kernelCount int

func (c *kernelCount) KernelLaunched(*gpu.Kernel, des.Time) {}
func (c *kernelCount) KernelRetired(*gpu.Kernel, des.Time)  { *c++ }

func TestWholeNetworkExecution(t *testing.T) {
	eng, dev, s, tasks := newRig(t, Config{Name: "naive", ContextSMs: []int{34, 34}}, 1)
	var finished kernelCount
	dev.AddHook(&finished)
	job := tasks[0].NewJob(0, 0)
	s.OnRelease(job, 0)
	eng.Run()
	if !job.Done {
		t.Fatal("job incomplete")
	}
	// One kernel per inference, not one per stage.
	if got := finished; got != 1 {
		t.Errorf("kernels = %d, want 1 (whole network)", got)
	}
	// All stage bookkeeping still filled for metrics parity.
	for _, st := range job.Stages {
		if !st.Finished {
			t.Errorf("stage %d not marked finished", st.Index)
		}
	}
}

// fixedLog is a gpu.Hook recording each launched kernel's fixed cost.
type fixedLog []float64

func (l *fixedLog) KernelLaunched(k *gpu.Kernel, _ des.Time) { *l = append(*l, k.FixedMS) }
func (l *fixedLog) KernelRetired(*gpu.Kernel, des.Time)      {}

// TestSequentialExecutionOverheadSlowsInference: a whole-network job finishes
// later than the same work launched with no fixed cost by exactly its fixed
// cost — the graph's op count × 12 µs of synchronous launches plus the cold
// partition's 0.30 ms switch.
func TestSequentialExecutionOverheadSlowsInference(t *testing.T) {
	eng, dev, s, tasks := newRig(t, Config{Name: "naive", ContextSMs: []int{68}}, 1)
	var fixed fixedLog
	dev.AddHook(&fixed)
	job := tasks[0].NewJob(0, 0)
	s.OnRelease(job, 0)
	eng.Run()
	ops := float64(len(tasks[0].Graph.Ops))
	want := float64(0.012*ops) + 0.30
	if len(fixed) != 1 || fixed[0] != want {
		t.Fatalf("fixed costs = %v, want [%v]", fixed, want)
	}

	// The same work as one kernel without fixed cost on an identical device.
	refEng := des.NewEngine()
	refDev, err := gpu.NewDevice(refEng, speedup.DefaultModel(), gpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := refDev.CreateContext("ref", 68)
	if err != nil {
		t.Fatal(err)
	}
	var refDone des.Time
	k := refDev.NewKernel()
	k.Shares = tasks[0].Graph.WorkByClass()
	k.OnDone = func(_ *gpu.Kernel, now des.Time) { refDone = now }
	ctx.AddStream("s0", gpu.LowPriority).Submit(k)
	refEng.Run()
	if extra := (job.FinishedAt - refDone).Milliseconds(); math.Abs(extra-want) > 1e-5 {
		t.Errorf("fixed cost added %.6f ms, want %.6f", extra, want)
	}
}

// TestReconfigurationCostOnTaskSwitch: a partition switching to a different
// resident model pays 0.30 ms plus 0.03 ms per other resident model, on top
// of the per-op synchronisation; running the same model again pays only the
// latter.
func TestReconfigurationCostOnTaskSwitch(t *testing.T) {
	cfg := Config{Name: "naive", ContextSMs: []int{68}}
	eng, dev, s, tasks := newRig(t, cfg, 2) // both tasks share one partition
	var fixed fixedLog
	dev.AddHook(&fixed)
	// Alternate releases: every job switches the resident model.
	j0 := tasks[0].NewJob(0, 0)
	j1 := tasks[1].NewJob(0, 0)
	s.OnRelease(j0, 0)
	s.OnRelease(j1, 0)
	eng.Run()
	if s.Reconfigurations() != 2 {
		t.Errorf("reconfigurations = %d, want 2 (cold + switch)", s.Reconfigurations())
	}
	sync := float64(0.012 * float64(len(tasks[0].Graph.Ops)))
	switched := sync + (0.30 + float64(0.03*(2-1)))
	if len(fixed) != 2 || fixed[0] != switched || fixed[1] != switched {
		t.Errorf("fixed costs = %v, want [%v %v]", fixed, switched, switched)
	}
	// Same task twice: only the first pays.
	eng2, dev2, s2, tasks2 := newRig(t, cfg, 2)
	fixed = nil
	dev2.AddHook(&fixed)
	s2.OnRelease(tasks2[0].NewJob(0, 0), 0)
	s2.OnRelease(tasks2[0].NewJob(1, 0), 0)
	eng2.Run()
	if s2.Reconfigurations() != 1 {
		t.Errorf("reconfigurations = %d, want 1", s2.Reconfigurations())
	}
	if len(fixed) != 2 || fixed[0] != switched || fixed[1] != sync {
		t.Errorf("fixed costs = %v, want [%v %v]", fixed, switched, sync)
	}
}

func TestDominoEffectUnderOverload(t *testing.T) {
	// FIFO with no temporal partitioning: once saturated, every
	// subsequent job of the backlog misses — the paper's domino effect.
	cfg := Config{Name: "naive", ContextSMs: []int{34, 34}}
	eng, _, s, tasks := newRig(t, cfg, 24)
	var jobs []*rt.Job
	for _, task := range tasks {
		task := task
		var release func(k int)
		release = func(k int) {
			at := des.Time(int64(task.Period) * int64(k))
			if at >= des.FromSeconds(2) {
				return
			}
			eng.ScheduleFunc(at, "rel", func(now des.Time) {
				j := task.NewJob(k, now)
				jobs = append(jobs, j)
				s.OnRelease(j, now)
				release(k + 1)
			})
		}
		release(0)
	}
	eng.RunUntil(des.FromSeconds(2))
	missed, considered := 0, 0
	for _, j := range jobs {
		if j.Release < des.Second || j.Deadline >= des.FromSeconds(2) {
			continue
		}
		considered++
		if j.Missed(des.FromSeconds(2)) {
			missed++
		}
	}
	if considered == 0 {
		t.Fatal("no jobs in window")
	}
	if dmr := float64(missed) / float64(considered); dmr < 0.9 {
		t.Errorf("overloaded naive DMR = %.2f, want near 1 (domino)", dmr)
	}
}

func TestAttachErrors(t *testing.T) {
	eng, dev, s, tasks := newRig(t, Config{Name: "naive", ContextSMs: []int{34}}, 1)
	if err := s.Attach(eng, dev, tasks); err == nil {
		t.Error("double attach accepted")
	}
	s2, _ := New(Config{Name: "naive", ContextSMs: []int{999}})
	eng2 := des.NewEngine()
	dev2, _ := gpu.NewDevice(eng2, speedup.DefaultModel(), gpu.DefaultConfig())
	if err := s2.Attach(eng2, dev2, tasks); err == nil {
		t.Error("oversized partition accepted")
	}
}

func TestOnReleaseUnknownTaskPanics(t *testing.T) {
	_, _, s, tasks := newRig(t, Config{Name: "naive", ContextSMs: []int{34}}, 1)
	g := dnn.TinyCNN(dnn.DefaultCostModel())
	stages, _ := dnn.Partition(g, 2)
	alien, _ := rt.NewTask(99, "alien", g, stages, des.Second, des.Second, 0)
	alien.SetWCETs([]des.Time{des.Millisecond, des.Millisecond})
	_ = tasks
	defer func() {
		if recover() == nil {
			t.Fatal("release of unattached task did not panic")
		}
	}()
	s.OnRelease(alien.NewJob(0, 0), 0)
}

// New returns a baseline configured by cfg, or cfg's error.
func New(cfg Config) (*Scheduler, error) {
	s := &Scheduler{}
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}
