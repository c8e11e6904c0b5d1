package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"sgprs/internal/des"
)

// arrTask is the canonical 30 fps task view the arrival tests use, with no
// horizon before the clock's end.
func arrTask(index, count int) ArrivalTask {
	return ArrivalTask{
		Index:   index,
		Count:   count,
		Period:  des.FromSeconds(1.0 / 30),
		Horizon: des.Never,
	}
}

// startArrival starts a's process for one task in a slot of its own.
func startArrival(a Arrival, t ArrivalTask, rng *des.RNG) arrivalProcess {
	return a.start(&procSlot{}, t, rng)
}

// drain collects up to n instants from a process.
func drain(p arrivalProcess, n int) []des.Time {
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
		p := startArrival(a, arrTask(0, 3), rng)
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
// rate anchors defer to the start of the process and then produce the
// identical stream an explicitly scaled process would, for each of the
// three natural-rate kinds, and scaling composes.
func TestArrivalScale(t *testing.T) {
	trace := SyntheticTrace("x", 1, 10, 1, 1)
	for _, c := range []struct {
		a    Arrival
		name string
	}{
		{Periodic{}, "periodic"},
		{Periodic{Rate: 2}, "periodic-2x"},
		{Periodic{}.Scale(2), "periodic-2x"},
		{Poisson{}, "poisson"},
		{Poisson{Rate: 2}, "poisson-2"},
		{Poisson{Rate: 2}.Scale(2), "poisson-4"},
		{Poisson{}.Scale(2), "poisson-2x"},
		{Poisson{}.Scale(1), "poisson"},
		{Bursty{OnSec: 0.5, OffSec: 1.5}, "bursty-0.5/1.5"},
		{Bursty{OnSec: 0.5, OffSec: 1.5, Rate: 3}.Scale(2), "bursty-0.5/1.5"},
		{Bursty{OnSec: 0.5, OffSec: 1.5}.Scale(2), "bursty-0.5/1.5-2x"},
		{MMPP{RatesPerSec: []float64{0, 9}, MeanSojournSec: []float64{1, 1}}, "mmpp-2"},
		{MMPP{RatesPerSec: []float64{0, 9}, MeanSojournSec: []float64{1, 1}}.Scale(2), "mmpp-2"},
		{Diurnal{PeriodSec: 2}, "diurnal-2s"},
		{Diurnal{PeriodSec: 2, MaxRate: 5}.Scale(2), "diurnal-2s"},
		{Diurnal{PeriodSec: 2}.Scale(2), "diurnal-2s-2x"},
		{Diurnal{PeriodSec: 2}.Scale(4).Scale(0.5), "diurnal-2s-2x"},
		{Trace{Data: trace}, "trace:x"},
		{Trace{Data: trace}.Scale(2), "trace:x-2x"},
	} {
		if got := c.a.Name(); got != c.name {
			t.Errorf("%#v: name = %q, want %q", c.a, got, c.name)
		}
	}

	// A 0.5 s period keeps the natural rate (2/s) exact in float64, so a
	// deferred-scale stream must equal its explicit-rate twin bit for bit.
	task := ArrivalTask{Index: 0, Count: 1, Period: des.FromSeconds(0.5)}
	for _, c := range []struct {
		name            string
		natural         Arrival
		explicit        func(f float64) Arrival
		factor, compose float64
	}{
		{"poisson", Poisson{}, func(f float64) Arrival { return Poisson{Rate: 2 * f} }, 2, 4},
		{"bursty", Bursty{OnSec: 0.5, OffSec: 1.5},
			func(f float64) Arrival { return Bursty{OnSec: 0.5, OffSec: 1.5, Rate: 2 * f} }, 2, 4},
		{"diurnal", Diurnal{PeriodSec: 2, MinRate: 1},
			func(f float64) Arrival { return Diurnal{PeriodSec: 2, MinRate: f, MaxRate: 4 * f} }, 2, 4},
	} {
		want := drain(startArrival(c.explicit(c.factor), task, des.NewRNG(5).Fork(1)), 100)
		got := drain(startArrival(c.natural.Scale(c.factor), task, des.NewRNG(5).Fork(1)), 100)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: scaled natural rate differs from its explicit twin", c.name)
		}
		// Scale composes: compose·factor is one scale by the product.
		want = drain(startArrival(c.explicit(c.compose*c.factor), task, des.NewRNG(5).Fork(1)), 100)
		got = drain(startArrival(c.natural.Scale(c.compose).Scale(c.factor), task, des.NewRNG(5).Fork(1)), 100)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: composed scale differs from one scale by the product", c.name)
		}
	}
}

// TestPeriodicRateSpeedsReleases: Periodic{Rate: 2} halves the inter-release
// gap while Rate 0 and 1 keep the task period.
func TestPeriodicRateSpeedsReleases(t *testing.T) {
	task := arrTask(0, 1)
	base := drain(startArrival(Periodic{}, task, des.NewRNG(1).Fork(1)), 10)
	one := drain(startArrival(Periodic{Rate: 1}, task, des.NewRNG(1).Fork(1)), 10)
	fast := drain(startArrival(Periodic{Rate: 2}, task, des.NewRNG(1).Fork(1)), 10)
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
	got0 := drain(startArrival(a, ArrivalTask{Index: 0, Count: 2}, nil), 10)
	got1 := drain(startArrival(a, ArrivalTask{Index: 1, Count: 2}, nil), 10)
	if want := []des.Time{10, 30, 50}; !reflect.DeepEqual(got0, want) {
		t.Errorf("task 0 rows = %v, want %v", got0, want)
	}
	if want := []des.Time{20, 40, 60}; !reflect.DeepEqual(got1, want) {
		t.Errorf("task 1 rows = %v, want %v", got1, want)
	}

	// No ids: round-robin by row index.
	rr := Trace{Data: &TraceData{Name: "rr", Times: []des.Time{10, 20, 30, 40}}}
	if got := drain(startArrival(rr, ArrivalTask{Index: 1, Count: 2}, nil), 10); !reflect.DeepEqual(got, []des.Time{20, 40}) {
		t.Errorf("round-robin rows = %v", got)
	}

	// Speed 2 halves the replay timestamps.
	fast := drain(startArrival(Trace{Data: data, Speed: 2}, ArrivalTask{Index: 0, Count: 1}, nil), 10)
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

// TestMMPPWalkStopsAtHorizon: a low-intensity MMPP whose next arrival lies
// far past the horizon stops at the first state boundary at or past the
// horizon and returns des.Never. A twin stepped one boundary at a time (each
// Next given a horizon just past its clock) ends at the same boundary, in
// the same state, with the same RNG cursor, so the walk drew nothing past
// that boundary.
func TestMMPPWalkStopsAtHorizon(t *testing.T) {
	a := MMPP{RatesPerSec: []float64{0, 200}, MeanSojournSec: []float64{0.2, 0.1}}.Scale(1e-8)
	horizon := des.FromSeconds(10)
	task := arrTask(0, 1)
	task.Horizon = horizon
	p := startArrival(a, task, des.NewRNG(5).Fork(1)).(*mmppProcess)
	if at, ok := p.Next(); at != des.Never || !ok {
		t.Fatalf("Next = %v, %v; want des.Never, true", at, ok)
	}
	q := startArrival(a, task, des.NewRNG(5).Fork(1)).(*mmppProcess)
	steps := 0
	for q.cur < horizon {
		q.horizon = q.cur + 1
		if at, _ := q.Next(); at != des.Never {
			t.Fatalf("stepped walk released at %v", at)
		}
		steps++
	}
	if p.cur != q.cur || p.state != q.state || p.phaseEnd != q.phaseEnd || *p.rng != *q.rng {
		t.Errorf("walk stopped at %v (state %d, phase end %v), stepped walk's first boundary past %v is %v (state %d, phase end %v)",
			p.cur, p.state, p.phaseEnd, horizon, q.cur, q.state, q.phaseEnd)
	}
	if steps < 20 {
		t.Errorf("only %d boundaries before the horizon; the walk is barely exercised", steps)
	}
}

// TestMMPPHorizonKeepsInstants: a horizon changes no instant before it. A
// bounded and an unbounded MMPP on the same stream emit the same instants up
// to the horizon; past it the bounded one emits the same instant or
// des.Never.
func TestMMPPHorizonKeepsInstants(t *testing.T) {
	a := MMPP{RatesPerSec: []float64{0, 200}, MeanSojournSec: []float64{0.2, 0.1}}
	horizon := des.FromSeconds(2)
	task := arrTask(0, 1)
	free := startArrival(a, task, des.NewRNG(9).Fork(1))
	task.Horizon = horizon
	bounded := startArrival(a, task, des.NewRNG(9).Fork(1))
	n := 0
	for {
		want, _ := free.Next()
		got, _ := bounded.Next()
		if want >= horizon {
			if got != want && got != des.Never {
				t.Errorf("first instant past the horizon = %v, want %v or des.Never", got, want)
			}
			break
		}
		if got != want {
			t.Fatalf("instant %d = %v, want %v", n, got, want)
		}
		n++
	}
	if n < 50 {
		t.Errorf("only %d instants before the horizon", n)
	}
}

// TestArrivalTinyRateSaturates: at a rate Validate accepts but whose gaps
// overflow the nanosecond clock, every kind saturates at des.Never instead
// of wrapping to a negative instant, so the generator's horizon check ends
// the chain; no draw goes backwards, and none loops forever.
func TestArrivalTinyRateSaturates(t *testing.T) {
	const tiny = 1e-12
	for _, a := range []Arrival{
		Periodic{Rate: tiny},
		Poisson{Rate: tiny},
		Poisson{}.Scale(tiny),
		Bursty{OnSec: 1, OffSec: 1, Rate: tiny},
		Bursty{OnSec: 1, OffSec: 1}.Scale(tiny),
		MMPP{RatesPerSec: []float64{tiny}, MeanSojournSec: []float64{3600}},
		Diurnal{PeriodSec: 1, MaxRate: tiny},
		Diurnal{PeriodSec: 1}.Scale(tiny),
		Trace{Data: SyntheticTrace("tiny", 1, 10, 1, 1), Speed: tiny},
	} {
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		times := drain(startArrival(a, arrTask(0, 1), des.NewRNG(3).Fork(1)), 4)
		prev := des.Time(0)
		for i, at := range times {
			if at < prev {
				t.Errorf("%s: instant %d (%v) before %v", a.Name(), i, at, prev)
			}
			prev = at
		}
		if len(times) == 0 || times[len(times)-1] != des.Never {
			t.Errorf("%s: instants %v do not reach des.Never", a.Name(), times)
		}
	}
}
