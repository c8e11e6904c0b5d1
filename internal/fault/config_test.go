package fault

import (
	"math"
	"strings"
	"testing"
)

// TestValidate walks the rejection surface: every malformed field must fail
// with a message naming the offending value, and the accept cases — including
// nil and the empty Config — must pass.
func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  *Config
		want string // substring of the error; empty means valid
	}{
		{"nil", nil, ""},
		{"empty", &Config{}, ""},
		{"full", &Config{
			Overrun:     &Overrun{Model: OverrunHeavyTail, Factor: 2, Alpha: 3},
			Transient:   &Transient{Prob: 0.1, Policy: "kill-chain", MaxRetries: 2, BackoffMS: 5},
			Degradation: []Window{{StartSec: 0, EndSec: 1, SMs: 10}, {StartSec: 1, EndSec: 2, SMs: 30}},
		}, ""},
		{"bad model", &Config{Overrun: &Overrun{Model: "gaussian", Factor: 2}}, "unknown overrun model"},
		{"deflating factor", &Config{Overrun: &Overrun{Model: OverrunConstant, Factor: 0.5}}, "must be at least 1"},
		{"negative alpha", &Config{Overrun: &Overrun{Model: OverrunHeavyTail, Factor: 2, Alpha: -1}}, "alpha"},
		{"negative cadence", &Config{Overrun: &Overrun{Model: OverrunSpike, Factor: 2, Every: -3}}, "cadence"},
		{"prob above 1", &Config{Transient: &Transient{Prob: 1.5}}, "outside [0, 1]"},
		{"negative prob", &Config{Transient: &Transient{Prob: -0.1}}, "outside [0, 1]"},
		{"bad policy", &Config{Transient: &Transient{Prob: 0.1, Policy: "pray"}}, "recovery policy"},
		{"negative retries", &Config{Transient: &Transient{Prob: 0.1, MaxRetries: -1}}, "retry budget"},
		{"negative backoff", &Config{Transient: &Transient{Prob: 0.1, BackoffMS: -2}}, "backoff"},
		{"zero SMs", &Config{Degradation: []Window{{StartSec: 0, EndSec: 1, SMs: 0}}}, "must be positive"},
		{"backward window", &Config{Degradation: []Window{{StartSec: 2, EndSec: 1, SMs: 5}}}, "not a forward interval"},
		{"negative start", &Config{Degradation: []Window{{StartSec: -1, EndSec: 1, SMs: 5}}}, "not a forward interval"},
		{"unsorted windows", &Config{Degradation: []Window{
			{StartSec: 2, EndSec: 3, SMs: 5}, {StartSec: 0, EndSec: 1, SMs: 5},
		}}, "sorted"},
		{"overlapping windows", &Config{Degradation: []Window{
			{StartSec: 0, EndSec: 2, SMs: 5}, {StartSec: 1, EndSec: 3, SMs: 5},
		}}, "overlap"},
		// NaN compares false against every bound, so each float field
		// needs its own finiteness check.
		{"NaN factor", &Config{Overrun: &Overrun{Model: OverrunConstant, Factor: math.NaN()}}, "overrun factor NaN must be at least 1 and finite"},
		{"infinite factor", &Config{Overrun: &Overrun{Model: OverrunConstant, Factor: math.Inf(1)}}, "overrun factor +Inf"},
		{"NaN alpha", &Config{Overrun: &Overrun{Model: OverrunHeavyTail, Factor: 2, Alpha: math.NaN()}}, "overrun alpha NaN"},
		{"NaN prob", &Config{Transient: &Transient{Prob: math.NaN()}}, "transient probability NaN outside [0, 1]"},
		{"NaN backoff", &Config{Transient: &Transient{Prob: 0.1, BackoffMS: math.NaN()}}, "retry backoff NaN ms"},
		{"infinite backoff", &Config{Transient: &Transient{Prob: 0.1, BackoffMS: math.Inf(1)}}, "retry backoff +Inf ms"},
		{"NaN window start", &Config{Degradation: []Window{{StartSec: math.NaN(), EndSec: 1, SMs: 5}}}, "degradation window 0 [NaN, 1)"},
		{"infinite window end", &Config{Degradation: []Window{
			{StartSec: 0, EndSec: 1, SMs: 5}, {StartSec: 2, EndSec: math.Inf(1), SMs: 5},
		}}, "degradation window 1 [2, +Inf) is not a forward interval of finite seconds"},
		{"NaN crash", &Config{DeviceFaults: []DeviceFault{{StartSec: math.NaN()}}}, "device fault 0 start NaN"},
		{"NaN restart", &Config{DeviceFaults: []DeviceFault{{StartSec: 1, RestartSec: math.NaN()}}}, "device fault 0 restart NaN"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestCloneIndependence pins the deep copy: mutating every level of a clone
// must leave the original untouched, and nil clones to nil. Experiment axes
// rely on this to stamp per-cell fault rates without corrupting the variant.
func TestCloneIndependence(t *testing.T) {
	if (*Config)(nil).Clone() != nil {
		t.Error("nil did not clone to nil")
	}
	orig := &Config{
		Seed:        9,
		Overrun:     &Overrun{Model: OverrunSpike, Factor: 1.5, Every: 10},
		Transient:   &Transient{Prob: 0.05, Policy: "retry", MaxRetries: 1},
		Degradation: []Window{{StartSec: 0.5, EndSec: 1, SMs: 20}},
	}
	c := orig.Clone()
	c.Seed = 1
	c.Overrun.Factor = 99
	c.Transient.Prob = 1
	c.Degradation[0].SMs = 1
	if orig.Seed != 9 || orig.Overrun.Factor != 1.5 || orig.Transient.Prob != 0.05 || orig.Degradation[0].SMs != 20 {
		t.Errorf("mutating the clone reached the original: %+v", orig)
	}
}
