package main

import (
	"math"
	"strings"
	"testing"
)

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
}
