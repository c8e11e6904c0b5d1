package config

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sgprs/internal/fault"
)

// TestParsePool: a context pool is a list of SM allocations, each at least
// 1; a bad element is named in the error.
func TestParsePool(t *testing.T) {
	cases := []struct {
		in      string
		want    []int
		wantErr string
	}{
		{"34,34", []int{34, 34}, ""},
		{" 51 , 17,68", []int{51, 17, 68}, ""},
		{"34,,34", nil, `invalid SM allocation ""`},
		{"34,x", nil, `invalid SM allocation "x"`},
		{"34,0", nil, `invalid SM allocation "0"`},
		{"-3", nil, `invalid SM allocation "-3"`},
		{"", nil, `invalid SM allocation ""`},
	}
	for _, c := range cases {
		got, err := ParseInts(c.in, "SM allocation", 1, math.MaxInt)
		if c.wantErr != "" {
			if err == nil || err.Error() != c.wantErr {
				t.Errorf("pool %q: error = %v, want %q", c.in, err, c.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("pool %q = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

// TestParseLists: "a..b" expands an inclusive integer range within the
// bounds; a bad range is an error naming the whole flag value; elements
// outside the bounds are named; float lists take any float.
func TestParseLists(t *testing.T) {
	ints := []struct {
		in      string
		lo, hi  int
		want    []int
		wantErr string
	}{
		{"1..4", 1, math.MaxInt, []int{1, 2, 3, 4}, ""},
		{" 3 .. 3", 1, math.MaxInt, []int{3}, ""},
		{"2,4", 1, math.MaxInt, []int{2, 4}, ""},
		{"0..4", 1, math.MaxInt, nil, `invalid range "0..4"`},
		{"4..2", 1, math.MaxInt, nil, `invalid range "4..2"`},
		{"1..x", 1, math.MaxInt, nil, `invalid range "1..x"`},
		{"60..70", 1, 68, nil, `invalid range "60..70"`},
		{"34,69", 1, 68, nil, `invalid count "69"`},
		{"34,0", 1, 68, nil, `invalid count "0"`},
	}
	for _, c := range ints {
		got, err := ParseInts(c.in, "count", c.lo, c.hi)
		if c.wantErr != "" {
			if err == nil || err.Error() != c.wantErr {
				t.Errorf("ParseInts(%q) error = %v, want %q", c.in, err, c.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseInts(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	floats := []struct {
		in      string
		want    []float64
		wantErr string
	}{
		{"1, 1.25,1.5", []float64{1, 1.25, 1.5}, ""},
		{"-2", []float64{-2}, ""},
		{"1,,2", nil, `invalid factor ""`},
		{"1..2", nil, `invalid factor "1..2"`},
	}
	for _, c := range floats {
		got, err := ParseFloats(c.in, "factor")
		if c.wantErr != "" {
			if err == nil || err.Error() != c.wantErr {
				t.Errorf("ParseFloats(%q) error = %v, want %q", c.in, err, c.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseFloats(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

func TestParseFaults(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"transient":{"prob":0.05,"policy":"retry"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	badJSON := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badJSON, []byte(`{"transient":`), 0o644); err != nil {
		t.Fatal(err)
	}
	want := &fault.Config{Transient: &fault.Transient{Prob: 0.05, Policy: "retry"}}
	cases := []struct {
		name    string
		arg     string
		want    *fault.Config
		wantErr string
	}{
		{"empty", "", nil, ""},
		{"inline", ` {"transient":{"prob":0.05,"policy":"retry"}}`, want, ""},
		{"file", good, want, ""},
		{"unreadable-file", filepath.Join(dir, "missing.json"), nil, "faults config: open "},
		{"invalid-inline-json", `{"transient":}`, nil, "faults config: invalid character"},
		{"invalid-file-json", badJSON, nil, "faults config: unexpected EOF"},
		{"unknown-key", `{"transient":{"probability":0.05}}`, nil, `faults config: json: unknown field "probability"`},
		{"fails-validate", `{"transient":{"prob":1.5}}`, nil, "fault: transient probability 1.5 outside [0, 1]"},
	}
	for _, c := range cases {
		got, err := ParseFaults(c.arg)
		if c.wantErr != "" {
			if err == nil || !strings.HasPrefix(err.Error(), c.wantErr) {
				t.Errorf("%s: error = %v, want prefix %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %+v, %v; want %+v", c.name, got, err, c.want)
		}
	}
}
