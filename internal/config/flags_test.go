package config

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sgprs/internal/fault"
)

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
		got, err := ParsePool(c.in)
		if c.wantErr != "" {
			if err == nil || err.Error() != c.wantErr {
				t.Errorf("ParsePool(%q) error = %v, want %q", c.in, err, c.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParsePool(%q) = %v, %v; want %v", c.in, got, err, c.want)
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
		{"invalid-file-json", badJSON, nil, "faults config: unexpected end of JSON input"},
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
