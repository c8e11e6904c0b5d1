package sim

import (
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sgprs/internal/fault"
	"sgprs/internal/gpu"
	"sgprs/internal/memo"
	"sgprs/internal/metrics"
	"sgprs/internal/speedup"
	"sgprs/internal/workload"
)

// sweep runs base across the task counts on one session and folds the
// results into a figure series — the in-package stand-in for a one-variant
// exp.Series spec.
func sweep(t *testing.T, sess *Session, base RunConfig, counts []int) []metrics.Point {
	t.Helper()
	series := make([]metrics.Point, 0, len(counts))
	for _, n := range counts {
		cfg := base
		cfg.NumTasks = n
		res, err := sess.Run(cfg)
		if err != nil {
			t.Fatalf("%s n=%d: %v", base.Name, n, err)
		}
		series = append(series, metrics.Point{Tasks: n, Summary: res.Summary, FastForward: res.FastForward})
	}
	return series
}

// scenarioSeries regenerates a paper scenario on one session: each variant's
// series over the task counts, keyed by variant name.
func scenarioSeries(t *testing.T, scenario int, counts []int, horizonSec float64, cache *memo.Cache) map[string][]metrics.Point {
	t.Helper()
	np, err := ScenarioContexts(scenario)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(cache)
	out := map[string][]metrics.Point{}
	for _, v := range ScenarioVariants() {
		out[v.Name] = sweep(t, sess, RunConfig{
			Kind:       v.Kind,
			Name:       v.Name,
			ContextSMs: ContextPool(np, v.OS, speedup.DeviceSMs),
			HorizonSec: horizonSec,
			Seed:       1,
		}, counts)
	}
	return out
}

func TestContextPool(t *testing.T) {
	cases := []struct {
		np   int
		os   float64
		want int
	}{
		{2, 1.0, 34}, // Scenario 1
		{2, 1.5, 51},
		{2, 2.0, 68},
		{3, 1.0, 23}, // Scenario 2
		{3, 1.5, 34},
		{3, 2.0, 45},
	}
	for _, c := range cases {
		pool := ContextPool(c.np, c.os, 68)
		if len(pool) != c.np {
			t.Fatalf("np=%d os=%v: pool size %d", c.np, c.os, len(pool))
		}
		for _, sms := range pool {
			if sms != c.want {
				t.Errorf("np=%d os=%v: %d SMs per context, want %d", c.np, c.os, sms, c.want)
			}
		}
	}
	// Clamping.
	if got := ContextPool(1, 5.0, 68); got[0] != 68 {
		t.Errorf("over-clamp = %v", got)
	}
	if got := ContextPool(200, 0.1, 68); got[0] != 1 {
		t.Errorf("under-clamp = %v", got)
	}
}

// TestContextPoolHugeOversubscription: an os so large that os·total/np
// overflows an int still clamps to the whole device, and a NaN os panics
// like any other non-positive one.
func TestContextPoolHugeOversubscription(t *testing.T) {
	for _, os := range []float64{1e300, math.Inf(1)} {
		if got := ContextPool(2, os, 68); !slices.Equal(got, []int{68, 68}) {
			t.Errorf("os=%v: pool %v, want the whole device per context", os, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NaN os did not panic")
		}
	}()
	ContextPool(2, math.NaN(), 68)
}

func TestContextPoolPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { ContextPool(0, 1, 68) },
		func() { ContextPool(2, 0, 68) },
		func() { ContextPool(2, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestScenarioContexts(t *testing.T) {
	if np, err := ScenarioContexts(1); err != nil || np != 2 {
		t.Errorf("scenario 1 = %d, %v", np, err)
	}
	if np, err := ScenarioContexts(2); err != nil || np != 3 {
		t.Errorf("scenario 2 = %d, %v", np, err)
	}
	if _, err := ScenarioContexts(3); err == nil {
		t.Error("scenario 3 accepted")
	}
}

func TestScenarioVariants(t *testing.T) {
	vs := ScenarioVariants()
	if len(vs) != 4 {
		t.Fatalf("variants = %d", len(vs))
	}
	if vs[0].Kind != KindNaive || vs[0].OS != 1.0 {
		t.Errorf("first variant = %+v, want naive@1.0", vs[0])
	}
	oss := []float64{1.0, 1.5, 2.0}
	for i, v := range vs[1:] {
		if v.Kind != KindSGPRS || v.OS != oss[i] {
			t.Errorf("variant %d = %+v", i+1, v)
		}
	}
}

func TestReferenceGraphCalibration(t *testing.T) {
	m := speedup.DefaultModel()
	g := ReferenceGraph(m)
	lat := g.LatencyMS(m, speedup.DeviceSMs)
	if math.Abs(lat-ReferenceLatencyMS) > 1e-9 {
		t.Errorf("reference latency = %v, want %v", lat, ReferenceLatencyMS)
	}
}

func TestNormalizeDefaults(t *testing.T) {
	cfg := RunConfig{Kind: KindSGPRS, ContextSMs: []int{34, 34}, NumTasks: 4}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "sgprs" || cfg.FPS != 30 || cfg.Stages != 6 ||
		cfg.HorizonSec != 10 || cfg.WarmUpSec != 1 {
		t.Errorf("defaults: %+v", cfg)
	}
	if cfg.GPU.TotalSMs != 68 {
		t.Errorf("GPU config not defaulted: %+v", cfg.GPU)
	}
}

func TestNormalizeErrors(t *testing.T) {
	small := gpu.DefaultConfig()
	small.TotalSMs = 20
	cases := []struct {
		cfg  RunConfig
		want string
	}{
		{RunConfig{Kind: KindSGPRS, NumTasks: 1}, "no contexts"},
		{RunConfig{Kind: KindSGPRS, ContextSMs: []int{34}}, "at least one task"},
		{RunConfig{Kind: KindSGPRS, ContextSMs: []int{34}, NumTasks: 1, HorizonSec: 0.5, WarmUpSec: 1}, "must exceed warm-up"},
		// A context outside the device is a config error naming the entry.
		{RunConfig{Kind: KindSGPRS, ContextSMs: []int{0}, NumTasks: 1}, "ContextSMs[0] = 0 outside [1, 68]"},
		{RunConfig{Kind: KindNaive, ContextSMs: []int{-4, 34}, NumTasks: 1}, "ContextSMs[0] = -4 outside [1, 68]"},
		{RunConfig{Kind: KindSGPRS, ContextSMs: []int{34, 100000}, NumTasks: 1}, "ContextSMs[1] = 100000 outside [1, 68]"},
		{RunConfig{Kind: KindSGPRS, ContextSMs: []int{34}, NumTasks: 1, GPU: small}, "ContextSMs[0] = 34 outside [1, 20]"},
		// A partly set GPU is not silently replaced by the default device.
		{RunConfig{Kind: KindSGPRS, ContextSMs: []int{34}, NumTasks: 1, GPU: gpu.Config{AggregateGainCap: 20}}, "GPU.TotalSMs 0"},
	}
	for i, tc := range cases {
		if err := tc.cfg.Normalize(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: err = %v, want one containing %q", i, err, tc.want)
		}
	}
}

// TestClockRangeInputs pins the handling of instants past the nanosecond
// clock's ~9.22e9 s range, which used to wrap to negative: an out-of-range
// horizon or release period is a config error naming its field (a warm-up
// that long implies such a horizon),
// while a degradation window ending past the horizon is valid and simply
// never restored.
func TestClockRangeInputs(t *testing.T) {
	base := RunConfig{Kind: KindSGPRS, ContextSMs: []int{34, 34}, NumTasks: 4}
	cases := []struct {
		name    string
		edit    func(*RunConfig)
		wantErr string // "" means the run must succeed
	}{
		{"horizon", func(c *RunConfig) { c.HorizonSec = 1e10 }, "horizon"},
		{"warm-up", func(c *RunConfig) { c.WarmUpSec, c.HorizonSec = 1e12, 2e12 }, "horizon"},
		{"fps", func(c *RunConfig) { c.FPS = 1e-12 }, "FPS"},
		{"degradation-past-horizon", func(c *RunConfig) {
			c.HorizonSec = 2
			c.Faults = &fault.Config{Degradation: []fault.Window{{StartSec: 1, EndSec: 1e12, SMs: 40}}}
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.edit(&cfg)
			res, err := NewSession(memo.New()).Run(cfg)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one naming %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.Completed == 0 {
				t.Fatal("no job completed")
			}
		})
	}
}

// TestReleaseCountFitsInt: a run whose release count (tasks × FPS × rate
// factor × horizon) overflows int is a config error naming the horizon,
// on every word size. The 8-task jitter-free 1.5× run below fast-forwards;
// on a 32-bit int its 1e7 s horizon used to print negative counts and a
// 5e9 s one to panic in the collector.
func TestReleaseCountFitsInt(t *testing.T) {
	paper := RunConfig{Kind: KindSGPRS, ContextSMs: ContextPool(2, 1.5, 68), NumTasks: 8}
	// huge has the tasks for 0.6 × MaxInt releases over its 2 s at 30 FPS.
	huge := RunConfig{Kind: KindSGPRS, ContextSMs: []int{34}, NumTasks: math.MaxInt / 100, HorizonSec: 2}
	cases := []struct {
		name     string
		cfg      RunConfig
		edit     func(*RunConfig)
		overflow bool
	}{
		{"600s", paper, func(c *RunConfig) { c.HorizonSec = 600 }, false},
		{"1e7s", paper, func(c *RunConfig) { c.HorizonSec = 1e7 }, strconv.IntSize == 32},
		{"5e9s", paper, func(c *RunConfig) { c.HorizonSec = 5e9 }, strconv.IntSize == 32},
		{"tasks", huge, func(*RunConfig) {}, false},
		{"tasks-twice-the-rate", huge, func(c *RunConfig) { c.Arrival = workload.Periodic{Rate: 2} }, true},
		{"tasks-longer", huge, func(c *RunConfig) { c.HorizonSec = 4 }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			tc.edit(&cfg)
			err := cfg.Normalize()
			switch {
			case !tc.overflow && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.overflow && (err == nil || !strings.Contains(err.Error(), "horizon")):
				t.Fatalf("err = %v, want one naming the horizon", err)
			}
		})
	}
}

func TestRunSingleTask(t *testing.T) {
	res, err := Run(RunConfig{
		Kind:       KindSGPRS,
		ContextSMs: []int{34, 34},
		NumTasks:   1,
		HorizonSec: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One 30-fps task, no contention: 30 fps, zero misses.
	if math.Abs(res.Summary.TotalFPS-30) > 1.5 {
		t.Errorf("fps = %v, want ~30", res.Summary.TotalFPS)
	}
	if res.Summary.Missed != 0 {
		t.Errorf("missed = %d", res.Summary.Missed)
	}
	if res.DeviceUtilization <= 0 || res.DeviceUtilization > 1 {
		t.Errorf("utilization = %v", res.DeviceUtilization)
	}
}

func TestRunNaive(t *testing.T) {
	res, err := Run(RunConfig{
		Kind:       KindNaive,
		ContextSMs: []int{34, 34},
		NumTasks:   4,
		HorizonSec: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Summary.TotalFPS-120) > 3 {
		t.Errorf("fps = %v, want ~120", res.Summary.TotalFPS)
	}
	if res.Summary.Missed != 0 {
		t.Errorf("missed = %d at light load", res.Summary.Missed)
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := RunConfig{
		Kind:       KindSGPRS,
		ContextSMs: []int{51, 51},
		NumTasks:   26, // over-subscribed and contended: jitter active
		HorizonSec: 2,
		Seed:       9,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Summary, b.Summary) {
		t.Errorf("same seed diverged:\n%+v\n%+v", a.Summary, b.Summary)
	}
}

func TestSweepSeries(t *testing.T) {
	base := RunConfig{
		Kind:       KindSGPRS,
		Name:       "sgprs",
		ContextSMs: []int{34, 34},
		NumTasks:   1,
		HorizonSec: 2,
	}
	series := sweep(t, NewSession(memo.Default()), base, []int{2, 4, 6})
	if len(series) != 3 {
		t.Fatalf("series = %d points", len(series))
	}
	// FPS grows linearly with task count below saturation.
	for i, p := range series {
		want := float64((i + 1) * 2 * 30)
		if math.Abs(p.Summary.TotalFPS-want) > 3 {
			t.Errorf("n=%d fps = %v, want ~%v", p.Tasks, p.Summary.TotalFPS, want)
		}
	}
}

func TestRunScenarioSmall(t *testing.T) {
	run := scenarioSeries(t, 1, []int{2, 4}, 2, memo.Default())
	if len(run) != 4 {
		t.Fatalf("scenario run = %+v", run)
	}
	for name, series := range run {
		if len(series) != 2 {
			t.Errorf("%s series = %d points", name, len(series))
		}
		// At 2 and 4 tasks everything meets deadlines.
		if metrics.PivotPoint(series) != 4 {
			t.Errorf("%s pivot = %d, want 4", name, metrics.PivotPoint(series))
		}
	}
	if _, err := ScenarioContexts(9); err == nil {
		t.Error("bad scenario accepted")
	}
}

func TestKindString(t *testing.T) {
	if KindSGPRS.String() != "sgprs" || KindNaive.String() != "naive" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() != "kind(9)" {
		t.Error("unknown kind name wrong")
	}
}

// TestHeadlineClaim is the repository's sanity anchor: with the default
// calibration, SGPRS beats the naive baseline on both pivot point and
// saturated FPS in scenario 1, and the naive scheduler collapses after its
// pivot — the paper's central comparison.
func TestHeadlineClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point sweep")
	}
	counts := []int{8, 16, 20, 24, 28}
	run := scenarioSeries(t, 1, counts, 4, memo.Default())
	naive := run["naive"]
	sgprs := run["sgprs-2.0x"]
	if pn, ps := metrics.PivotPoint(naive), metrics.PivotPoint(sgprs); pn >= ps {
		t.Errorf("naive pivot %d should precede SGPRS pivot %d", pn, ps)
	}
	fn, fs := metrics.SaturationFPS(naive), metrics.SaturationFPS(sgprs)
	if fn >= fs {
		t.Errorf("naive saturation %v should trail SGPRS %v", fn, fs)
	}
	drop := (fs - fn) / fs
	if drop < 0.25 || drop > 0.50 {
		t.Errorf("naive FPS drop = %.0f%%, paper reports ~38%%", drop*100)
	}
	// Naive DMR collapses to ~1 past its pivot; SGPRS stays moderate.
	if dmr := naive[len(naive)-1].Summary.DMR; dmr < 0.9 {
		t.Errorf("naive terminal DMR = %v, want ~1", dmr)
	}
	if dmr := sgprs[len(sgprs)-1].Summary.DMR; dmr > 0.4 {
		t.Errorf("SGPRS terminal DMR = %v, want moderate", dmr)
	}
}
