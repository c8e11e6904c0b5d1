package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"sgprs/internal/des"
)

// arrTask is the canonical 30 fps task view the arrival tests use.
func arrTask(index, count int) ArrivalTask {
	return ArrivalTask{
		Index:  index,
		Count:  count,
		Period: des.FromSeconds(1.0 / 30),
	}
}

// drain collects up to n instants from a process.
func drain(p ArrivalProcess, n int) []des.Time {
	var out []des.Time
	for len(out) < n {
		at, ok := p.Next()
		if !ok {
			break
		}
		out = append(out, at)
	}
	return out
}

// TestArrivalMonotone: every process emits non-decreasing instants — the
// contract the generator's release chain relies on.
func TestArrivalMonotone(t *testing.T) {
	procs := []Arrival{
		Periodic{},
		Periodic{Rate: 1.7},
		Poisson{},
		Poisson{Rate: 120},
		Bursty{OnSec: 0.5, OffSec: 1.5},
		Bursty{OnSec: 1, OffSec: 0, Rate: 90},
		MMPP{RatesPerSec: []float64{0, 200}, MeanSojournSec: []float64{0.2, 0.1}},
		Diurnal{PeriodSec: 2},
		Diurnal{PeriodSec: 1, MinRate: 10, MaxRate: 100},
		Trace{Data: SyntheticTrace("mono", 3, 80, 2, 3)},
		Poisson{}.Scale(1.5),
	}
	for _, a := range procs {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: validate: %v", a.Name(), err)
			continue
		}
		rng := des.NewRNG(11).Fork(1)
		p := a.Start(arrTask(0, 3), rng)
		times := drain(p, 500)
		if len(times) == 0 {
			t.Errorf("%s: no arrivals", a.Name())
			continue
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				t.Errorf("%s: instant %d (%v) before %v", a.Name(), i, times[i], times[i-1])
				break
			}
		}
	}
}

// TestArrivalValidateRejects: malformed parameters — including NaN and Inf,
// which naive sign comparisons wave through — fail validation.
func TestArrivalValidateRejects(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Arrival{
		Periodic{Rate: -1},
		Periodic{Rate: nan},
		Periodic{Rate: inf},
		Poisson{Rate: -5},
		Poisson{Rate: nan},
		Bursty{OnSec: 0, OffSec: 1},
		Bursty{OnSec: nan, OffSec: 1},
		Bursty{OnSec: 1, OffSec: -1},
		Bursty{OnSec: 1, OffSec: 1, Rate: inf},
		MMPP{},
		MMPP{RatesPerSec: []float64{10}, MeanSojournSec: []float64{1, 2}},
		MMPP{RatesPerSec: []float64{0, 0}, MeanSojournSec: []float64{1, 1}},
		MMPP{RatesPerSec: []float64{10}, MeanSojournSec: []float64{0}},
		MMPP{RatesPerSec: []float64{nan}, MeanSojournSec: []float64{1}},
		Diurnal{PeriodSec: 0},
		Diurnal{PeriodSec: inf},
		Diurnal{PeriodSec: 1, MinRate: 50, MaxRate: 10},
		Diurnal{PeriodSec: 1, MinRate: -1},
		Trace{},
		Trace{Data: &TraceData{Name: "empty"}},
		Trace{Data: SyntheticTrace("x", 1, 10, 1, 1), Speed: -2},
		Poisson{}.Scale(0),
		Poisson{}.Scale(nan),
	}
	for _, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("%#v: invalid parameters accepted", a)
		}
	}
}

// TestArrivalScale: explicit rates scale in place (stable names); natural-
// rate anchors defer to Start and then produce the identical stream an
// explicitly scaled process would.
func TestArrivalScale(t *testing.T) {
	if name := (Poisson{Rate: 2}).Scale(2).Name(); name != "poisson-4" {
		t.Errorf("explicit scale name = %q", name)
	}
	if name := (Poisson{}).Scale(2).Name(); name != "poisson-2x" {
		t.Errorf("deferred scale name = %q", name)
	}

	// A 0.5 s period keeps the natural rate (2/s) exact in float64, so the
	// deferred-scale stream must equal the explicit-rate stream bit for bit.
	task := ArrivalTask{Index: 0, Count: 1, Period: des.FromSeconds(0.5)}
	want := drain(Poisson{Rate: 4}.Start(task, des.NewRNG(5).Fork(1)), 100)
	got := drain(Poisson{}.Scale(2).Start(task, des.NewRNG(5).Fork(1)), 100)
	if !reflect.DeepEqual(want, got) {
		t.Error("scaled natural-rate Poisson differs from explicit double rate")
	}

	// Scale composes: 4x then 2x = 8x.
	want = drain(Poisson{Rate: 16}.Start(task, des.NewRNG(5).Fork(1)), 100)
	got = drain(Poisson{}.Scale(4).Scale(2).Start(task, des.NewRNG(5).Fork(1)), 100)
	if !reflect.DeepEqual(want, got) {
		t.Error("composed scale differs from direct 8x rate")
	}
}

// TestPeriodicRateSpeedsReleases: Periodic{Rate: 2} halves the inter-release
// gap while Rate 0 and 1 keep the task period.
func TestPeriodicRateSpeedsReleases(t *testing.T) {
	task := arrTask(0, 1)
	base := drain(Periodic{}.Start(task, des.NewRNG(1).Fork(1)), 10)
	one := drain(Periodic{Rate: 1}.Start(task, des.NewRNG(1).Fork(1)), 10)
	fast := drain(Periodic{Rate: 2}.Start(task, des.NewRNG(1).Fork(1)), 10)
	if !reflect.DeepEqual(base, one) {
		t.Error("Rate 1 differs from Rate 0")
	}
	// The halved period rounds to the nearest ns, so two fast steps may
	// land 1-2 ns off one base step — equality up to that rounding.
	if diff := int64(fast[2]) - int64(base[1]); diff < -2 || diff > 2 {
		t.Errorf("Rate 2 instant 2 = %v, want ≈ base instant 1 = %v", fast[2], base[1])
	}
}

// TestTraceDemux: recorded task ids route rows modulo the simulated task
// count; without ids, rows deal round-robin by position.
func TestTraceDemux(t *testing.T) {
	data := &TraceData{
		Name:  "demux",
		Times: []des.Time{10, 20, 30, 40, 50, 60},
		Tasks: []int{0, 1, 0, 3, 2, 5},
	}
	a := Trace{Data: data}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Count 2: task 0 owns even recorded ids (0, 0, 2), task 1 odd (1, 3, 5).
	got0 := drain(a.Start(ArrivalTask{Index: 0, Count: 2}, nil), 10)
	got1 := drain(a.Start(ArrivalTask{Index: 1, Count: 2}, nil), 10)
	if want := []des.Time{10, 30, 50}; !reflect.DeepEqual(got0, want) {
		t.Errorf("task 0 rows = %v, want %v", got0, want)
	}
	if want := []des.Time{20, 40, 60}; !reflect.DeepEqual(got1, want) {
		t.Errorf("task 1 rows = %v, want %v", got1, want)
	}

	// No ids: round-robin by row index.
	rr := Trace{Data: &TraceData{Name: "rr", Times: []des.Time{10, 20, 30, 40}}}
	if got := drain(rr.Start(ArrivalTask{Index: 1, Count: 2}, nil), 10); !reflect.DeepEqual(got, []des.Time{20, 40}) {
		t.Errorf("round-robin rows = %v", got)
	}

	// Speed 2 halves the replay timestamps.
	fast := drain(Trace{Data: data, Speed: 2}.Start(ArrivalTask{Index: 0, Count: 1}, nil), 10)
	if fast[0] != 5 || fast[len(fast)-1] != 30 {
		t.Errorf("speed-2 rows = %v", fast)
	}
}

// TestParseTraceCSV covers the header contract, the optional task column,
// and the malformed-input rejections.
func TestParseTraceCSV(t *testing.T) {
	d, err := ParseTraceCSV("ok", strings.NewReader("time_s,task\n0.0,0\n0.5,1\n1.0,0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Times) != 3 || d.Times[1] != des.FromSeconds(0.5) || d.Tasks[1] != 1 {
		t.Errorf("parsed trace = %+v", d)
	}

	if _, err := ParseTraceCSV("t", strings.NewReader("time\n1.0\n2.5\n")); err != nil {
		t.Errorf("time-only header rejected: %v", err)
	}

	for name, body := range map[string]string{
		"no-time-column": "task\n1\n",
		"unsorted":       "time_s\n2.0\n1.0\n",
		"negative":       "time_s\n-1.0\n",
		"bad-float":      "time_s\nxyz\n",
		"empty":          "time_s\n",
	} {
		if _, err := ParseTraceCSV(name, strings.NewReader(body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestParseTraceJSON covers the JSON schema and its name override.
func TestParseTraceJSON(t *testing.T) {
	d, err := ParseTraceJSON("fallback", strings.NewReader(
		`{"name": "azure", "times_s": [0.0, 0.25, 0.5], "tasks": [0, 1, 0]}`))
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "azure" || len(d.Times) != 3 || d.Tasks[2] != 0 {
		t.Errorf("parsed trace = %+v", d)
	}
	if _, err := ParseTraceJSON("bad", strings.NewReader(`{"times_s": [1.0, 0.5]}`)); err == nil {
		t.Error("unsorted JSON trace accepted")
	}
	if _, err := ParseTraceJSON("bad", strings.NewReader(`{not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestSyntheticTraceDeterministic: the trace is a pure function of its
// arguments, sorted, and routes every row to a valid task.
func TestSyntheticTraceDeterministic(t *testing.T) {
	a := SyntheticTrace("s", 7, 60, 2, 4)
	b := SyntheticTrace("s", 7, 60, 2, 4)
	if !reflect.DeepEqual(a, b) {
		t.Error("identical arguments produced different traces")
	}
	if err := a.validate(); err != nil {
		t.Fatal(err)
	}
	for i, id := range a.Tasks {
		if id < 0 || id >= 4 {
			t.Fatalf("row %d task id %d out of range", i, id)
		}
	}
	// ~60/s × 2 s × 4 tasks ≈ 480 rows; the Poisson spread stays well
	// inside ±50%.
	if n := len(a.Times); n < 240 || n > 720 {
		t.Errorf("synthetic trace has %d rows, want ≈480", n)
	}
	if c := SyntheticTrace("s", 8, 60, 2, 4); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced the same trace")
	}
}

// Identical is Replicate in positional form.
func Identical(n int, spec TaskSpec, stagger bool) []TaskSpec {
	return Replicate(Options{Count: n, Spec: spec, Stagger: stagger})
}

// TestBuildRejectsNonFinite: NaN and Inf in the float-valued spec fields
// must fail validation instead of corrupting periods or work draws.
func TestBuildRejectsNonFinite(t *testing.T) {
	for _, mutate := range []func(*TaskSpec){
		func(sp *TaskSpec) { sp.FPS = math.NaN() },
		func(sp *TaskSpec) { sp.FPS = math.Inf(1) },
		func(sp *TaskSpec) { sp.WorkVariation = math.NaN() },
		func(sp *TaskSpec) { sp.WorkVariation = math.Inf(1) },
		func(sp *TaskSpec) { sp.DeadlineFactor = math.NaN() },
	} {
		sp := specResNet()
		mutate(&sp)
		if _, err := Build([]TaskSpec{sp}); err == nil {
			t.Errorf("non-finite spec accepted: %+v", sp)
		}
	}
}
