package main

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"sgprs/internal/des"
)

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
// usable period fails with an error naming the flag, instead of panicking in
// make or on a negative duration, printing an analysis with a deadline of
// "never", or failing later with a period error that names no flag; the
// documented defaults still pass and give the 30 fps period.
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
		period, err := checkFlags(tc.n, tc.fps)
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
