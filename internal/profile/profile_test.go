package profile

import (
	"errors"
	"math"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/gpu"
	"sgprs/internal/rt"
	"sgprs/internal/speedup"
)

func newProfiler() *Profiler {
	return New(speedup.DefaultModel(), gpu.DefaultConfig())
}

func TestStageWCETMatchesAnalyticLatency(t *testing.T) {
	p := newProfiler()
	p.Margin = 0 // compare raw measurement to the analytic model
	g := dnn.ResNet18(dnn.DefaultCostModel())
	stages, err := dnn.Partition(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	m := speedup.DefaultModel()
	for _, st := range stages {
		got, err := p.StageWCET(st, 34)
		if err != nil {
			t.Fatal(err)
		}
		want := st.LatencyMS(m, 34)
		launch := gpu.DefaultConfig().LaunchOverhead
		diff := math.Abs(got.Milliseconds() - want - launch.Milliseconds())
		if diff > 1e-3 {
			t.Errorf("%s WCET %.4f ms, analytic %.4f + launch", st.Name(), got.Milliseconds(), want)
		}
	}
}

func TestMarginInflatesWCET(t *testing.T) {
	g := dnn.ResNet18(dnn.DefaultCostModel())
	stages, _ := dnn.Partition(g, 6)
	p := newProfiler()
	p.Margin = 0
	raw, err := p.StageWCET(stages[0], 34)
	if err != nil {
		t.Fatal(err)
	}
	p.Margin = 0.10
	padded, err := p.StageWCET(stages[0], 34)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(padded) / float64(raw)
	if math.Abs(ratio-1.10) > 1e-6 {
		t.Errorf("margin ratio = %v, want 1.10", ratio)
	}
}

func TestProfileTaskSetsWCETsAndVirtualDeadlines(t *testing.T) {
	g := dnn.ResNet18(dnn.DefaultCostModel())
	stages, _ := dnn.Partition(g, 6)
	period := des.FromSeconds(1.0 / 30)
	task, err := rt.NewTask(0, "resnet18", g, stages, period, period, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := newProfiler().ProfileTask(task, 34); err != nil {
		t.Fatal(err)
	}
	if !task.Profiled() {
		t.Fatal("task not profiled")
	}
	var sum des.Time
	for j := 0; j < len(task.Stages); j++ {
		if task.StageWCET(j) <= 0 {
			t.Errorf("stage %d WCET %v", j, task.StageWCET(j))
		}
		sum += task.VirtualDeadline(j)
	}
	if sum != task.Deadline {
		t.Errorf("virtual deadlines sum to %v, want %v", sum, task.Deadline)
	}
	// At 34 SMs, the whole ResNet18 should take ~1.8 ms×1.05 margin.
	if w := task.WCET().Milliseconds(); w < 1.2 || w > 3.5 {
		t.Errorf("task WCET = %.3f ms, want ~2", w)
	}
}

func TestOperationGainReproducesFigure1(t *testing.T) {
	p := newProfiler()
	cases := []struct {
		class speedup.Class
		want  float64
	}{
		{speedup.Conv, 32},
		{speedup.MaxPool, 14},
		{speedup.AvgPool, 7},
	}
	for _, c := range cases {
		got, err := p.OperationGain(c.class, 50, speedup.DeviceSMs)
		if err != nil {
			t.Fatal(err)
		}
		// Launch overhead dilutes the measured ratio slightly.
		if math.Abs(got-c.want) > 0.5 {
			t.Errorf("%v measured gain = %.2f, want ~%.0f", c.class, got, c.want)
		}
	}
	// "Other operations failed to exceed 7x."
	for _, cl := range []speedup.Class{speedup.ReLU, speedup.BatchNorm, speedup.Linear, speedup.Add} {
		got, err := p.OperationGain(cl, 50, speedup.DeviceSMs)
		if err != nil {
			t.Fatal(err)
		}
		if got > 7.1 {
			t.Errorf("%v measured gain = %.2f, want <= 7", cl, got)
		}
	}
}

func TestNetworkGainNearPaper(t *testing.T) {
	p := newProfiler()
	g := dnn.ResNet18(dnn.DefaultCostModel())
	got, err := p.NetworkGain(g, speedup.DeviceSMs)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ResNet18 reaches "only 23x".
	if got < 20 || got > 26 {
		t.Errorf("ResNet18 measured gain = %.2f, want ~23", got)
	}
	// The composed gain must sit below conv's.
	conv, _ := p.OperationGain(speedup.Conv, 50, speedup.DeviceSMs)
	if got >= conv {
		t.Errorf("network gain %.2f should be below conv %.2f", got, conv)
	}
}

// NetworkLatency measures the isolated inference latency of a whole network
// at sms SMs (no WCET margin — this is a raw measurement).
func (p *Profiler) NetworkLatency(g *dnn.Graph, sms int) (des.Time, error) {
	return p.measure(g.Name, g.WorkByClass(), sms)
}

func TestNetworkLatencyScalesWithSMs(t *testing.T) {
	p := newProfiler()
	g := dnn.ResNet18(dnn.DefaultCostModel())
	l10, err := p.NetworkLatency(g, 10)
	if err != nil {
		t.Fatal(err)
	}
	l68, err := p.NetworkLatency(g, 68)
	if err != nil {
		t.Fatal(err)
	}
	if l68 >= l10 {
		t.Errorf("latency should shrink with SMs: %v at 10, %v at 68", l10, l68)
	}
}

func TestMeasureErrorPaths(t *testing.T) {
	p := newProfiler()
	g := dnn.ResNet18(dnn.DefaultCostModel())
	if _, err := p.NetworkLatency(g, 0); err == nil {
		t.Error("0-SM context accepted")
	}
	if _, err := p.OperationGain(speedup.Conv, 10, 9999); err == nil {
		t.Error("oversized context accepted")
	}
	stages, _ := dnn.Partition(g, 6)
	if _, err := p.StageWCET(stages[0], -1); err == nil {
		t.Error("negative SMs accepted")
	}
}

func TestProfilingIsDeterministic(t *testing.T) {
	g := dnn.ResNet18(dnn.DefaultCostModel())
	stages, _ := dnn.Partition(g, 6)
	a, err := newProfiler().StageWCET(stages[2], 23)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newProfiler().StageWCET(stages[2], 23)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("profiling not deterministic: %v vs %v", a, b)
	}
}

// TestMarginOverflowSaturates: a margin that pads one stage past the clock,
// or every stage within it but their sum past it, fails with
// ErrWCETOverflow instead of wrapping into a negative WCET; so does a NaN
// margin.
func TestMarginOverflowSaturates(t *testing.T) {
	g := dnn.ResNet18(dnn.DefaultCostModel())
	stages, err := dnn.Partition(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	p := newProfiler()
	p.Margin = 0
	var total float64
	for _, st := range stages {
		c, err := p.StageWCET(st, 34)
		if err != nil {
			t.Fatal(err)
		}
		total += float64(c)
	}
	sumOnly := 1.5*float64(des.Never)/total - 1 // each stage fits, the sum does not
	for _, margin := range []float64{1e300, math.NaN(), sumOnly} {
		p.Margin = margin
		task, err := rt.NewTask(0, "r", g, stages, des.Second, des.Second, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.ProfileTask(task, 34); !errors.Is(err, ErrWCETOverflow) {
			t.Errorf("margin %v: ProfileTask error %v, want ErrWCETOverflow", margin, err)
		}
	}
	p.Margin = sumOnly
	if _, err := p.StageWCET(stages[0], 34); err != nil {
		t.Errorf("margin %v: one stage should still fit the clock: %v", sumOnly, err)
	}
}
