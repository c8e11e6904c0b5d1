package main

import (
	"math"
	"strings"
	"testing"
)

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
