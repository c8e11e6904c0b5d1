package main

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"sgprs/internal/exp"
	"sgprs/internal/workload"
)

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
		got, err := parseArrival(tc.arrival, tc.period)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: parseArrival(%q, %v) = %+v, want error", tc.name, tc.arrival, tc.period, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: parseArrival(%q, %v): %v", tc.name, tc.arrival, tc.period, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: parseArrival(%q, %v) = %+v, want %+v", tc.name, tc.arrival, tc.period, got, tc.want)
		}
	}
}

// TestMalformedTrafficAndFleetFlags pins that malformed -slo, -arrival-period
// and -admit values fail with an error naming the flag instead of running as
// if the flag were unset, and that the documented values still pass: -slo 0
// (none), -arrival-period 0 (defaults) and -admit -1 (leave as declared).
func TestMalformedTrafficAndFleetFlags(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name    string
		apply   func(*exp.Spec) error
		wantErr string // flag the error must name; "" = must succeed
	}{
		{"slo negative", traffic("", -5, 0), "-slo"},
		{"slo NaN", traffic("", nan, 0), "-slo"},
		{"slo Inf", traffic("", inf, 0), "-slo"},
		{"slo none", traffic("", 0, 0), ""},
		{"slo set", traffic("", 33.3, 0), ""},
		{"period NaN", traffic("diurnal", 0, nan), "-arrival-period"},
		{"period Inf", traffic("diurnal", 0, inf), "-arrival-period"},
		{"period negative", traffic("bursty", 0, -2), "-arrival-period"},
		{"period default", traffic("diurnal", 0, 0), ""},
		{"admit NaN", fleet(2, nan), "-admit"},
		{"admit negative", fleet(2, -0.5), "-admit"},
		{"admit above one", fleet(2, 1.5), "-admit"},
		{"admit NaN alone", fleet(0, nan), "-admit"},
		{"admit unset", fleet(2, -1), ""},
		{"admit zero", fleet(2, 0), ""},
		{"admit set", fleet(2, 0.8), ""},
	}
	for _, tc := range cases {
		spec, err := exp.Scenario(1, []int{4}, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		err = tc.apply(spec)
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

func traffic(arrival string, sloMS, periodSec float64) func(*exp.Spec) error {
	return func(s *exp.Spec) error { return applyTraffic(s, arrival, "", "", sloMS, periodSec) }
}

func fleet(devices int, admit float64) func(*exp.Spec) error {
	return func(s *exp.Spec) error { return applyFleet(s, devices, "", "", admit) }
}
