package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

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
