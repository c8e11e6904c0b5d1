package analysis

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/gpu"
	"sgprs/internal/memo"
	"sgprs/internal/profile"
	"sgprs/internal/rt"
	"sgprs/internal/sim"
	"sgprs/internal/speedup"
)

// refLoad is the calibrated ResNet18 benchmark load at 30 fps.
func refLoad(t *testing.T) TaskLoad {
	t.Helper()
	model := speedup.DefaultModel()
	g := sim.ReferenceGraph(model)
	stages, err := dnn.Partition(g, 6)
	if err != nil {
		t.Fatal(err)
	}
	period := des.FromSeconds(1.0 / 30)
	task, err := rt.NewTask(0, "resnet18", g, stages, period, period, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := profile.New(model, gpu.DefaultConfig()).ProfileTask(task, 34); err != nil {
		t.Fatal(err)
	}
	l, err := FromTask(task)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestFromTaskRequiresProfile(t *testing.T) {
	g := dnn.TinyCNN(dnn.DefaultCostModel())
	stages, _ := dnn.Partition(g, 2)
	task, _ := rt.NewTask(0, "t", g, stages, des.Second, des.Second, 0)
	if _, err := FromTask(task); err == nil {
		t.Error("unprofiled task accepted")
	}
}

func TestUtilizationAndWorkRate(t *testing.T) {
	l := refLoad(t)
	loads := []TaskLoad{l, l, l}
	u := Utilization(loads)
	// Three ResNet18 tasks at ~2ms WCET / 33.3ms period ≈ 0.18.
	if u < 0.1 || u > 0.3 {
		t.Errorf("utilization = %v", u)
	}
	r := WorkRate(loads)
	want := 3 * l.WorkMS / l.Period.Milliseconds()
	if math.Abs(r-want) > 1e-9 {
		t.Errorf("work rate = %v, want %v", r, want)
	}
}

func TestCapacityMarginSign(t *testing.T) {
	l := refLoad(t)
	dev := gpu.DefaultConfig()
	light := make([]TaskLoad, 5)
	heavy := make([]TaskLoad, 40)
	for i := range light {
		light[i] = l
	}
	for i := range heavy {
		heavy[i] = l
	}
	if m := CapacityMargin(light, dev); m <= 0 {
		t.Errorf("5 tasks should have headroom, margin %v", m)
	}
	if m := CapacityMargin(heavy, dev); m >= 0 {
		t.Errorf("40 tasks should overload, margin %v", m)
	}
}

func TestEDFFeasibleBoundary(t *testing.T) {
	l := refLoad(t)
	dev := gpu.DefaultConfig()
	pivot := PredictPivot(l, dev)
	// At the predicted pivot the demand test passes...
	loads := make([]TaskLoad, pivot)
	for i := range loads {
		loads[i] = l
	}
	if at, ok := EDFFeasible(loads, dev); !ok {
		t.Errorf("pivot-sized set infeasible at %v", at)
	}
	// ...and one more task breaks it.
	loads = append(loads, l)
	if _, ok := EDFFeasible(loads, dev); ok {
		t.Error("pivot+1 set reported feasible")
	}
	// Empty set is trivially feasible.
	if _, ok := EDFFeasible(nil, dev); !ok {
		t.Error("empty set infeasible")
	}
}

func TestPredictionsMatchSimulation(t *testing.T) {
	// The analytic pivot and saturation ceiling must agree with the
	// measured sweep within the fluid-model slack (the simulator pays
	// launch overheads and jitter the analysis ignores).
	l := refLoad(t)
	dev := gpu.DefaultConfig()
	predPivot := PredictPivot(l, dev)
	predFPS := PredictSaturationFPS(l, dev)

	sess := sim.NewSession(memo.Default())
	measuredPivot := 0
	var maxFPS float64
	for _, n := range []int{predPivot - 1, predPivot, predPivot + 2, predPivot + 5} {
		res, err := sess.Run(sim.RunConfig{
			Kind:       sim.KindSGPRS,
			Name:       "sgprs",
			ContextSMs: []int{34, 34},
			NumTasks:   n,
			HorizonSec: 4,
			Seed:       1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Missed == 0 {
			measuredPivot = n
		}
		if res.Summary.TotalFPS > maxFPS {
			maxFPS = res.Summary.TotalFPS
		}
	}
	if diff := measuredPivot - predPivot; diff < -2 || diff > 2 {
		t.Errorf("measured pivot %d vs predicted %d", measuredPivot, predPivot)
	}
	if maxFPS > predFPS*1.05 {
		t.Errorf("measured saturation %.0f beats the analytic ceiling %.0f", maxFPS, predFPS)
	}
	if maxFPS < predFPS*0.85 {
		t.Errorf("measured saturation %.0f far below ceiling %.0f", maxFPS, predFPS)
	}
}

func TestResponseEstimate(t *testing.T) {
	l := refLoad(t)
	dev := gpu.DefaultConfig()
	r := ResponseEstimate(l, dev, 23)
	// 23 frames × ~32.6 ssm-ms / 23.3 ≈ 32 ms.
	if ms := r.Milliseconds(); ms < 25 || ms > 40 {
		t.Errorf("response estimate = %v, want ~32ms", r)
	}
	if ResponseEstimate(l, gpu.Config{}, 1) != des.Never {
		t.Error("zero-capacity estimate should be Never")
	}
}

func TestAnalyzeReport(t *testing.T) {
	l := refLoad(t)
	dev := gpu.DefaultConfig()
	loads := []TaskLoad{l, l, l, l}
	rep := Analyze(loads, dev)
	if rep.Tasks != 4 || !rep.Feasible || rep.Margin <= 0 {
		t.Errorf("report = %+v", rep)
	}
	if !strings.Contains(rep.String(), "FEASIBLE") {
		t.Errorf("report string = %q", rep.String())
	}
	heavy := make([]TaskLoad, 40)
	for i := range heavy {
		heavy[i] = l
	}
	rep = Analyze(heavy, dev)
	if rep.Feasible || rep.FirstViolation == 0 {
		t.Errorf("overloaded report = %+v", rep)
	}
	if !strings.Contains(rep.String(), "INFEASIBLE") {
		t.Errorf("report string = %q", rep.String())
	}
}

// TestSensitivityFrontier cross-checks PredictPivot against EDFFeasible:
// sweeping identical-task counts 1..30, the largest feasible count (the
// feasibility frontier) is the predicted pivot, and the capacity margin
// strictly decreases with every added task.
func TestSensitivityFrontier(t *testing.T) {
	l := refLoad(t)
	dev := gpu.DefaultConfig()
	frontier := 0
	var margins []float64
	for n := 1; n <= 30; n++ {
		loads := make([]TaskLoad, n)
		for i := range loads {
			loads[i] = l
		}
		margins = append(margins, CapacityMargin(loads, dev))
		if _, ok := EDFFeasible(loads, dev); ok {
			frontier = n
		}
	}
	if frontier != PredictPivot(l, dev) {
		t.Errorf("frontier %d != predicted pivot %d", frontier, PredictPivot(l, dev))
	}
	for i := 1; i < len(margins); i++ {
		if margins[i] >= margins[i-1] {
			t.Fatalf("margins must strictly decrease: %v", margins[:i+1])
		}
	}
}

func TestDBFProperties(t *testing.T) {
	l := refLoad(t)
	if dbf(l, l.Deadline-1) != 0 {
		t.Error("dbf before first deadline must be 0")
	}
	if got := dbf(l, l.Deadline); got != l.WorkMS {
		t.Errorf("dbf at first deadline = %v, want one job", got)
	}
	if got := dbf(l, l.Deadline.Add(l.Period)); got != 2*l.WorkMS {
		t.Errorf("dbf at second deadline = %v, want two jobs", got)
	}
}

// Property: dbf is monotone in t and never exceeds the fluid envelope
// (t/T + 1)·W.
func TestDBFMonotoneProperty(t *testing.T) {
	l := refLoad(t)
	f := func(rawA, rawB uint32) bool {
		a := des.Time(rawA) * des.Microsecond
		b := des.Time(rawB) * des.Microsecond
		if a > b {
			a, b = b, a
		}
		da, db := dbf(l, a), dbf(l, b)
		env := (b.Milliseconds()/l.Period.Milliseconds() + 1) * l.WorkMS
		return da <= db && db <= env+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
