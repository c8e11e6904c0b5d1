package main

import (
	"math"
	"strings"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/rt"
	"sgprs/internal/speedup"
)

// TestMalformedRateAndMarginFlags pins that a -fps without a usable period
// or a negative or non-finite -margin fails with an error naming the flag,
// instead of panicking on a negative duration, printing a deadline of
// "never", or failing later with a WCET or period error that names neither
// flag; the documented defaults still pass and give the 30 fps period.
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
		period, err := checkFlags(tc.fps, tc.margin)
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
// WCET past the simulated clock passes checkFlags but fails profiling with
// an error naming -margin, instead of a negative-WCET error from a wrapped
// conversion; a large margin that still fits the clock profiles fine.
func TestOverflowingMarginNamesFlag(t *testing.T) {
	model := speedup.DefaultModel()
	for _, tc := range []struct {
		margin float64
		fail   bool
	}{{1e300, true}, {1e14, true}, {1e6, false}} {
		if _, err := checkFlags(30, tc.margin); err != nil {
			t.Fatalf("margin %v: checkFlags: %v", tc.margin, err)
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
