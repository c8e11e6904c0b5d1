package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sgprs/internal/config"
	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/exp"
	"sgprs/internal/rt"
	"sgprs/internal/runner"
	"sgprs/internal/speedup"
	"sgprs/internal/workload"
)

// TestDispatch: the exit status says how a run ended — 0 for success and
// -h, 2 for a usage error, 1 for a failure, reported on stderr with the
// subcommand's name.
func TestDispatch(t *testing.T) {
	cases := []struct {
		args   string
		code   int
		stderr string
	}{
		{"", 2, "usage: sgprs <subcommand>"},
		{"plot", 2, `unknown subcommand "plot"`},
		{"list -h", 0, "Usage of sgprs list"},
		{"sweep -jobs x", 2, `invalid value "x" for flag -jobs`},
		{"profile resnet18", 2, "unexpected arguments"},
		{"sweep -experiment nope", 1, `sgprs sweep: unknown experiment "nope" (registered: `},
		{"run -sched fifo", 1, `sgprs run: unknown scheduler "fifo"`},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := dispatch(strings.Fields(c.args), &stdout, &stderr)
		if code != c.code || !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("sgprs %s: exit %d, stderr %q; want exit %d, stderr containing %q",
				c.args, code, stderr.String(), c.code, c.stderr)
		}
	}
}

// TestRunReportsTheValuesItUsed: a zero -fps, -stages or -warmup runs with
// the default (30 fps, 6 stages, 1 s warm-up), and the header says so
// instead of echoing the zero.
func TestRunReportsTheValuesItUsed(t *testing.T) {
	var got, want bytes.Buffer
	if err := runCmd(strings.Fields("-fps 0 -stages 0 -warmup 0 -horizon 2"), &got, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := runCmd(strings.Fields("-fps 30 -stages 6 -warmup 1 -horizon 2"), &want, io.Discard); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("zero flags print\n%s\nwant the defaults' output\n%s", got.String(), want.String())
	}
	for _, line := range []string{"8 x ResNet18 @ 30 fps, 6 stages", "window           [1.0s, 2.0s)", "total FPS        240.0"} {
		if !strings.Contains(got.String(), line) {
			t.Errorf("output lacks %q:\n%s", line, got.String())
		}
	}
}

// TestMalformedHorizonFlag pins that a -horizon the trace cannot cover
// fails with an error naming the flag — in particular 0, which the run
// configuration would otherwise replace with its 10 s default — and that
// the documented default still passes.
func TestMalformedHorizonFlag(t *testing.T) {
	cases := []struct {
		name    string
		sec     float64
		wantErr bool
	}{
		{"zero", 0, true},
		{"negative", -1, true},
		{"NaN", math.NaN(), true},
		{"Inf", math.Inf(1), true},
		{"past the clock", 1e10, true},
		{"default", 0.5, false},
		{"long", 10, false},
	}
	for _, tc := range cases {
		err := checkHorizon(tc.sec)
		switch {
		case !tc.wantErr && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr && err == nil:
			t.Errorf("%s: -horizon %v accepted, want an error naming -horizon", tc.name, tc.sec)
		case tc.wantErr && !strings.Contains(err.Error(), "-horizon "):
			t.Errorf("%s: error %q does not name -horizon", tc.name, err)
		}
	}
	// With -o, the check runs before anything is simulated or written.
	out := filepath.Join(t.TempDir(), "trace.json")
	if err := runCmd([]string{"-horizon", "0", "-o", out}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "-horizon ") {
		t.Errorf("run -horizon 0 -o: error %v, want one naming -horizon", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("run -horizon 0 -o wrote %s", out)
	}
}

// TestParseArrivalPeriod pins the -arrival/-arrival-period flag pair: the
// period threads into the diurnal cycle and the bursty window pair, zero
// keeps the historical defaults, and misuse (negative periods, periods on
// memoryless processes) is rejected rather than silently ignored.
func TestParseArrivalPeriod(t *testing.T) {
	cases := []struct {
		name    string
		arrival string
		period  float64
		want    workload.Arrival
		wantErr bool
	}{
		{"diurnal-default", "diurnal:40", 0, workload.Diurnal{PeriodSec: 5, MaxRate: 40}, false},
		{"diurnal-period", "diurnal:40", 12, workload.Diurnal{PeriodSec: 12, MaxRate: 40}, false},
		{"bursty-default", "bursty:60", 0, workload.Bursty{OnSec: 1, OffSec: 1, Rate: 60}, false},
		{"bursty-period", "bursty:60", 4, workload.Bursty{OnSec: 2, OffSec: 2, Rate: 60}, false},
		{"poisson-unaffected", "poisson:45", 0, workload.Poisson{Rate: 45}, false},
		{"poisson-period", "poisson:45", 3, nil, true},
		{"periodic-period", "periodic", 3, nil, true},
		{"negative-period", "diurnal", -1, nil, true},
		{"bad-kind", "sawtooth", 0, nil, true},
		{"bad-rate", "diurnal:fast", 0, nil, true},
	}
	for _, tc := range cases {
		var got workload.Arrival
		a, err := arrivalFlag(tc.arrival, tc.period)
		if err == nil {
			got, err = a.Build()
		}
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: -arrival %q -arrival-period %v = %+v, want error", tc.name, tc.arrival, tc.period, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: -arrival %q -arrival-period %v: %v", tc.name, tc.arrival, tc.period, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: -arrival %q -arrival-period %v = %+v, want %+v", tc.name, tc.arrival, tc.period, got, tc.want)
		}
	}
}

// TestMalformedTrafficAndFleetFlags pins that malformed -slo, -arrival-period
// and -admit values fail with an error naming the flag instead of running as
// if the flag were unset, and that the documented values still pass: -slo 0
// (none), -arrival-period 0 (defaults) and -admit -1 (leave as declared).
// With -devices 1 an explicit -placement, -failover, -admit or -faults
// device_faults list fails too, rather than being dropped with the spec's
// fleet settings.
func TestMalformedTrafficAndFleetFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    string
		wantErr string // flag the error must name; "" = must succeed
	}{
		{"slo negative", "-slo -5", "-slo"},
		{"slo NaN", "-slo NaN", "-slo"},
		{"slo Inf", "-slo Inf", "-slo"},
		{"slo none", "-slo 0", ""},
		{"slo set", "-slo 33.3", ""},
		{"period NaN", "-arrival diurnal -arrival-period NaN", "-arrival-period"},
		{"period Inf", "-arrival diurnal -arrival-period Inf", "-arrival-period"},
		{"period negative", "-arrival bursty -arrival-period -2", "-arrival-period"},
		{"period default", "-arrival diurnal -arrival-period 0", ""},
		{"admit NaN", "-devices 2 -admit NaN", "-admit"},
		{"admit negative", "-devices 2 -admit -0.5", "-admit"},
		{"admit above one", "-devices 2 -admit 1.5", "-admit"},
		{"admit NaN alone", "-admit NaN", "-admit"},
		{"admit unset", "-devices 2 -admit -1", ""},
		{"admit zero", "-devices 2 -admit 0", ""},
		{"admit set", "-devices 2 -admit 0.8", ""},
		{"placement on one device", "-devices 1 -placement load-steal", "-placement"},
		{"failover on one device", "-devices 1 -failover retry", "-failover"},
		{"admit on one device", "-devices 1 -admit 0.8", "-admit"},
		{"device faults on one device", `-devices 1 -faults {"device_faults":[{"device":1,"start_sec":1}]}`, "-faults"},
		{"admit unset on one device", "-devices 1 -admit -1", ""},
		{"one device", "-devices 1", ""},
	}
	for _, tc := range cases {
		args := append(strings.Fields("-scenario 1 -tasks 4 -horizon 2"), strings.Fields(tc.args)...)
		_, _, err := parseSweep(args, io.Discard)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %s", tc.name, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr+" "):
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.wantErr)
		}
	}
}

// TestSetFlagsOverrideEverySpecSource: an explicitly set flag overrides the
// spec whether it came from a JSON file, the registry or -scenario; unset
// flags leave the spec as declared.
func TestSetFlagsOverrideEverySpecSource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.json")
	file := &config.Experiment{Scenario: 1, TaskCounts: []int{2}, HorizonSec: 5, Seed: 7}
	saveExperiment(t, file, path)
	for _, source := range []string{"-config " + path, "-experiment scenario1", "-scenario 2"} {
		_, spec, err := parseSweep(strings.Fields(source+" -tasks 4,6 -horizon 3 -slo 40"), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", source, err)
		}
		if tasks := taskAxis(spec); !reflect.DeepEqual(tasks, []float64{4, 6}) {
			t.Errorf("%s -tasks 4,6: task axis %v", source, tasks)
		}
		for _, v := range spec.Variants {
			if v.HorizonSec != 3 || v.SLOMS != 40 {
				t.Errorf("%s -horizon 3 -slo 40: variant %s has horizon %v, SLO %v", source, v.Name, v.HorizonSec, v.SLOMS)
			}
		}
	}
	_, spec, err := parseSweep([]string{"-config", path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if tasks := taskAxis(spec); !reflect.DeepEqual(tasks, []float64{2}) || spec.Variants[0].HorizonSec != 5 || spec.Variants[0].Seed != 7 {
		t.Errorf("unset flags changed the file's spec: tasks %v, variant %+v", tasks, spec.Variants[0])
	}
}

// TestFleetFlagsCollapseAxes: -devices and -placement override a spec
// whose devices or placement axis would otherwise re-apply per cell. The
// flag collapses the axis to its value, and -devices 1 drops a placement
// axis, since single-device runs take no placement.
func TestFleetFlagsCollapseAxes(t *testing.T) {
	cases := []struct {
		args      string
		jobs      int
		devices   int    // every job's device count; 0 = any
		placement string // every job's placement; "" = any
		first     string // the first job's label
	}{
		{"-devices 1 -tasks 2 -horizon 2", 1, 1, "bin-pack", "sgprs-fleet@dev=1"},
		{"-devices 2 -placement load-steal", 3, 2, "load-steal", "sgprs-fleet@dev=2,pl=load-steal"},
		{"-devices 3", 9, 3, "", "sgprs-fleet@dev=3,pl=bin-pack"},
		{"-placement context-fit -tasks 16", 3, 0, "context-fit", "sgprs-fleet@dev=2,pl=context-fit"},
	}
	for _, tc := range cases {
		_, spec, err := parseSweep(strings.Fields("-experiment fleet-shootout "+tc.args), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		c, err := spec.Compile()
		if err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		if len(c.Jobs) != tc.jobs {
			t.Errorf("%s: %d jobs, want %d", tc.args, len(c.Jobs), tc.jobs)
		}
		for _, j := range c.Jobs {
			if tc.devices != 0 && j.Config.Devices != tc.devices {
				t.Errorf("%s: job %s runs on %d devices, want %d", tc.args, j.Variant, j.Config.Devices, tc.devices)
			}
			if tc.placement != "" && j.Config.Placement.String() != tc.placement {
				t.Errorf("%s: job %s places by %v, want %s", tc.args, j.Variant, j.Config.Placement, tc.placement)
			}
		}
		if c.Jobs[0].Variant != tc.first {
			t.Errorf("%s: first label %q, want %q", tc.args, c.Jobs[0].Variant, tc.first)
		}
	}
}

func taskAxis(spec *exp.Spec) []float64 {
	for _, a := range spec.Axes {
		if a.Kind == exp.AxisTasks {
			return a.Values
		}
	}
	return nil
}

// TestSweepFlagsJSONRoundTrip: the experiment the sweep flags decode into
// survives a JSON round trip unchanged, over generated flag combinations.
func TestSweepFlagsJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	num := func(lo, hi float64) string { return strconv.FormatFloat(lo+rng.Float64()*(hi-lo), 'g', -1, 64) }
	faults := []string{
		`{"transient":{"prob":0.05,"policy":"retry"}}`,
		`{"seed":9,"overrun":{"model":"heavy-tail","factor":2,"alpha":3}}`,
		`{"degradation":[{"start_sec":1,"end_sec":2,"sms":34}],"device_faults":[{"device":1,"start_sec":1}]}`,
	}
	arrivals := []string{"periodic", "poisson", "bursty", "diurnal"}
	for i := 0; i < 300; i++ {
		args := []string{"-scenario", strconv.Itoa(1 + rng.IntN(2)), "-seed", strconv.FormatUint(rng.Uint64(), 10)}
		if rng.IntN(2) == 0 {
			lo := 1 + rng.IntN(20)
			args = append(args, "-tasks", strconv.Itoa(lo)+".."+strconv.Itoa(lo+rng.IntN(10)))
		} else {
			args = append(args, "-tasks", strconv.Itoa(1+rng.IntN(30))+","+strconv.Itoa(1+rng.IntN(30)))
		}
		if rng.IntN(2) == 0 {
			args = append(args, "-horizon", num(1.5, 20))
		}
		if rng.IntN(2) == 0 {
			kind := arrivals[rng.IntN(len(arrivals))]
			args = append(args, "-arrival", kind+":"+num(0, 100), "-rate", num(0.5, 2)+","+num(0.5, 2))
			if kind == "bursty" || kind == "diurnal" {
				args = append(args, "-arrival-period", num(0.5, 10))
			}
		}
		if rng.IntN(2) == 0 {
			args = append(args, "-slo", num(0, 100))
		}
		if rng.IntN(2) == 0 {
			args = append(args, "-faults", faults[rng.IntN(len(faults))])
		}
		if rng.IntN(2) == 0 {
			args = append(args, "-devices", strconv.Itoa(2+rng.IntN(3)), "-admit", num(0, 1),
				"-placement", []string{"bin-pack", "context-fit", "load-steal"}[rng.IntN(3)],
				"-failover", []string{"migrate", "retry", "shed"}[rng.IntN(3)])
		}
		f, _, err := parseSweep(args, io.Discard)
		if err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		data, err := json.Marshal(&f.e)
		if err != nil {
			t.Fatal(err)
		}
		var back config.Experiment
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, f.e) {
			t.Fatalf("%q: decoded %+v, after a JSON round trip %+v", args, f.e, back)
		}
	}
}

// saveExperiment writes e to path as the JSON file -config reads.
func saveExperiment(t *testing.T, e *config.Experiment, path string) {
	t.Helper()
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSweepFlagsMatchSavedJSON: a sweep given by flags and the same sweep
// given by the JSON file its decoded experiment saves to run the same cells
// with DeepEqual results — here an open-loop scenario on a two-device fleet
// at two task counts.
func TestSweepFlagsMatchSavedJSON(t *testing.T) {
	args := strings.Fields("-scenario 1 -tasks 2,4 -horizon 2 -arrival poisson:45 -slo 33.3 -devices 2 -placement context-fit -failover retry")
	f, fromFlags, err := parseSweep(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "e.json")
	saveExperiment(t, &f.e, path)
	_, fromFile, err := parseSweep([]string{"-config", path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	a, b := runSpec(t, fromFlags), runSpec(t, fromFile)
	if !reflect.DeepEqual(a.Order, b.Order) || !reflect.DeepEqual(a.TaskCounts, b.TaskCounts) {
		t.Fatalf("cells differ: flags %v × %v, JSON %v × %v", a.Order, a.TaskCounts, b.Order, b.TaskCounts)
	}
	for i := range a.Results {
		if !reflect.DeepEqual(a.Results[i].Result, b.Results[i].Result) {
			t.Errorf("cell %s n=%d: flags %+v, JSON %+v", a.Results[i].Job.Variant, a.Results[i].Job.Tasks,
				a.Results[i].Result.Summary, b.Results[i].Result.Summary)
		}
	}
	if len(a.Results) != 8 || a.Results[0].Result.Summary.Fleet.Devices != 2 {
		t.Errorf("ran %d cells, first on %d devices; want 8 fleet cells", len(a.Results), a.Results[0].Result.Summary.Fleet.Devices)
	}
}

func runSpec(t *testing.T, spec *exp.Spec) *exp.ResultSet {
	t.Helper()
	rs, err := exp.Run(context.Background(), spec, runner.Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestVerifyCounts: the verification sweep around a predicted pivot never
// asks for fewer than one task, so a low pivot still sweeps its valid
// neighbours instead of failing the whole sweep.
func TestVerifyCounts(t *testing.T) {
	cases := []struct {
		pivot int
		want  []int
	}{
		{24, []int{22, 24, 26}},
		{3, []int{1, 3, 5}},
		{2, []int{2, 4}},
		{1, []int{1, 3}},
		{0, []int{2}},
	}
	for _, c := range cases {
		if got := verifyCounts(c.pivot); !reflect.DeepEqual(got, c.want) {
			t.Errorf("verifyCounts(%d) = %v, want %v", c.pivot, got, c.want)
		}
	}
}

// TestMalformedFlags pins that a task count below one or a -fps without a
// usable period fails analyze with an error naming the flag, instead of
// panicking in make or on a negative duration, printing an analysis with a
// deadline of "never", or failing later with a period error that names no
// flag; the documented defaults still pass and give the 30 fps period.
func TestMalformedFlags(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		fps     float64
		wantErr string // flag the error must name; "" = must succeed
	}{
		{"n negative", -1, 30, "-n"},
		{"n zero", 0, 30, "-n"},
		{"fps negative", 24, -5, "-fps"},
		{"fps zero", 24, 0, "-fps"},
		{"fps NaN", 24, math.NaN(), "-fps"},
		{"fps Inf", 24, math.Inf(1), "-fps"},
		{"fps period past the clock", 24, 1e-10, "-fps"},
		{"fps period below a nanosecond", 24, 1e300, "-fps"},
		{"defaults", 24, 30, ""},
		{"one task", 1, 30, ""},
	}
	for _, tc := range cases {
		period, err := analysisPeriod(tc.n, tc.fps)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr == "" && period != des.FromSeconds(1/tc.fps):
			t.Errorf("%s: period %v, want %v", tc.name, period, des.FromSeconds(1/tc.fps))
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %s", tc.name, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr+" "):
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.wantErr)
		}
	}
}

// TestCalibrationCounts: the grid around the target pivot drops counts
// below 1, and a target pivot below 1 is rejected naming the flag.
func TestCalibrationCounts(t *testing.T) {
	cases := []struct {
		target  int
		want    []int
		wantErr bool
	}{
		{24, []int{22, 23, 24, 25, 26, 28}, false},
		{3, []int{1, 2, 3, 4, 5, 7}, false},
		{2, []int{1, 2, 3, 4, 6}, false},
		{1, []int{1, 2, 3, 5}, false},
		{0, nil, true},
		{-4, nil, true},
	}
	for _, c := range cases {
		got, err := calibrationCounts(c.target)
		if c.wantErr {
			if err == nil || !strings.Contains(err.Error(), "-target-pivot") {
				t.Errorf("calibrationCounts(%d) error = %v, want one naming -target-pivot", c.target, err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("calibrationCounts(%d) = %v, %v; want %v", c.target, got, err, c.want)
		}
	}
}

// TestMalformedTargetFlags pins that a non-positive or non-finite -os or
// -target-fps fails with an error naming the flag, instead of panicking in
// the context-pool builder or calibrating toward a meaningless target, and
// that the documented defaults still pass.
func TestMalformedTargetFlags(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name             string
		targetFPS, osLvl float64
		wantErr          string // flag the error must name; "" = must succeed
	}{
		{"os zero", 741, 0, "-os"},
		{"os negative", 741, -1, "-os"},
		{"os NaN", 741, nan, "-os"},
		{"os Inf", 741, inf, "-os"},
		{"target-fps negative", -3, 1.5, "-target-fps"},
		{"target-fps zero", 0, 1.5, "-target-fps"},
		{"target-fps NaN", nan, 1.5, "-target-fps"},
		{"target-fps Inf", inf, 1.5, "-target-fps"},
		{"defaults", 741, 1.5, ""},
		{"light grid", 120, 2, ""},
	}
	for _, tc := range cases {
		err := checkTargets(tc.targetFPS, tc.osLvl)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %s", tc.name, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr+" "):
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.wantErr)
		}
	}
}

// TestMalformedRateAndMarginFlags pins that a -fps without a usable period
// or a negative or non-finite -margin fails profile with an error naming
// the flag, instead of panicking on a negative duration, printing a
// deadline of "never", or failing later with a WCET or period error that
// names neither flag; the documented defaults still pass and give the
// 30 fps period.
func TestMalformedRateAndMarginFlags(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name        string
		fps, margin float64
		wantErr     string // flag the error must name; "" = must succeed
	}{
		{"fps negative", -5, 0.05, "-fps"},
		{"fps zero", 0, 0.05, "-fps"},
		{"fps NaN", nan, 0.05, "-fps"},
		{"fps Inf", inf, 0.05, "-fps"},
		{"fps period past the clock", 1e-10, 0.05, "-fps"},
		{"fps period below a nanosecond", 1e300, 0.05, "-fps"},
		{"margin NaN", 30, nan, "-margin"},
		{"margin negative", 30, -2, "-margin"},
		{"margin Inf", 30, inf, "-margin"},
		{"defaults", 30, 0.05, ""},
		{"no margin", 30, 0, ""},
	}
	for _, tc := range cases {
		period, err := profilePeriod(tc.fps, tc.margin)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr == "" && period != des.FromSeconds(1/tc.fps):
			t.Errorf("%s: period %v, want %v", tc.name, period, des.FromSeconds(1/tc.fps))
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: accepted, want an error naming %s", tc.name, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr+" "):
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.wantErr)
		}
	}
}

// TestOverflowingMarginNamesFlag: a finite -margin large enough to pad a
// WCET past the simulated clock passes the flag check but fails profiling
// with an error naming -margin, instead of a negative-WCET error from a
// wrapped conversion; a large margin that still fits the clock profiles
// fine.
func TestOverflowingMarginNamesFlag(t *testing.T) {
	model := speedup.DefaultModel()
	for _, tc := range []struct {
		margin float64
		fail   bool
	}{{1e300, true}, {1e14, true}, {1e6, false}} {
		if _, err := profilePeriod(30, tc.margin); err != nil {
			t.Fatalf("margin %v: profilePeriod: %v", tc.margin, err)
		}
		graph, err := buildNet("resnet18", model)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := dnn.Partition(graph, 6)
		if err != nil {
			t.Fatal(err)
		}
		period := des.FromSeconds(1.0 / 30)
		task, err := rt.NewTask(0, "resnet18", graph, parts, period, period, 0)
		if err != nil {
			t.Fatal(err)
		}
		err = profileTask(model, task, 34, tc.margin)
		switch {
		case !tc.fail && err != nil:
			t.Errorf("margin %v: %v", tc.margin, err)
		case tc.fail && (err == nil || !strings.Contains(err.Error(), "-margin ")):
			t.Errorf("margin %v: error %v does not name -margin", tc.margin, err)
		}
	}
}

// TestMalformedWorkFlag pins that a -work the measurement cannot run fails
// with an error naming the flag instead of panicking inside the device
// (no work, or a completion past the simulated clock) or printing a table
// of meaningless gains (NaN), and that the documented default and a work
// just inside the clock still pass.
func TestMalformedWorkFlag(t *testing.T) {
	cases := []struct {
		name    string
		workMS  float64
		wantErr bool
	}{
		{"zero", 0, true},
		{"negative", -5, true},
		{"NaN", math.NaN(), true},
		{"Inf", math.Inf(1), true},
		{"huge", 1e300, true},
		{"past the clock", 9.3e12, true},
		{"default", 50, false},
		{"inside the clock", 9.2e12, false},
	}
	for _, tc := range cases {
		err := checkWork(tc.workMS)
		switch {
		case !tc.wantErr && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr && err == nil:
			t.Errorf("%s: -work %v accepted, want an error naming -work", tc.name, tc.workMS)
		case tc.wantErr && !strings.Contains(err.Error(), "-work "):
			t.Errorf("%s: error %q does not name -work", tc.name, err)
		}
	}
}

// TestListFlagErrors: the list flags keep each command's bounds and error
// text through the shared parser.
func TestListFlagErrors(t *testing.T) {
	cases := []struct {
		args, want string
	}{
		{"speedup -sms 1,69", `invalid SM count "69" (device has 68 SMs)`},
		{"speedup -sms 0", `invalid SM count "0" (device has 68 SMs)`},
		{"run -contexts 34,x", `invalid SM allocation "x"`},
		{"analyze -contexts 0", `invalid SM allocation "0"`},
		{"sweep -tasks 0..4", `invalid range "0..4"`},
		{"sweep -tasks 2,0", `invalid task count "0"`},
		{"sweep -arrival poisson -rate 1,x", `invalid rate factor "x"`},
	}
	for _, c := range cases {
		var stderr bytes.Buffer
		if code := dispatch(strings.Fields(c.args), io.Discard, &stderr); code != 1 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("sgprs %s: exit %d, stderr %q; want exit 1 with %q", c.args, code, stderr.String(), c.want)
		}
	}
}
