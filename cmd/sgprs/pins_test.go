package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPinnedOutput: the subcommands reproduce byte for byte what the
// separate sgprs-sim, -sweep, -analyze, -calibrate, -profile and -speedup
// commands printed before they were merged into this one (testdata/, one
// file per invocation), plus three registry builtins at a small scale.
func TestPinnedOutput(t *testing.T) {
	cases := []struct {
		pin  string
		args string
	}{
		{"run-default.txt", "run -horizon 2"},
		{"run-naive-stagger.txt", "run -sched naive -stagger -horizon 2"},
		{"run-short-window.txt", "run -n 2 -horizon 0.3 -warmup 0.03"},
		{"sweep.txt", "sweep -scenario 1 -tasks 2,4 -horizon 2"},
		{"sweep-csv.txt", "sweep -scenario 1 -tasks 2,4 -horizon 2 -csv"},
		{"sweep-arrival.txt", "sweep -scenario 1 -tasks 2,4 -horizon 2 -arrival poisson:45 -rate 1,1.5 -slo 33.3"},
		{"sweep-fleet.txt", "sweep -scenario 2 -tasks 2,4 -horizon 2 -devices 3 -placement context-fit " +
			`-faults {"device_faults":[{"device":1,"start_sec":1,"restart_sec":1.5}]}`},
		{"sweep-config.txt", "sweep -config testdata/sweep-config.json"},
		{"sweep-config-scenario.txt", "sweep -config testdata/sweep-config-scenario.json"},
		{"sweep-fault-resilience.txt", "sweep -experiment fault-resilience -tasks 8 -horizon 2"},
		{"sweep-fleet-failover.txt", "sweep -experiment fleet-failover -tasks 12 -horizon 6"},
		{"sweep-oversubscription.txt", "sweep -experiment oversubscription -tasks 26 -horizon 2"},
		{"list.txt", "list"},
		{"analyze.txt", "analyze -n 8"},
		{"analyze-verify.txt", "analyze -n 8 -verify -jobs 1"},
		{"calibrate.txt", "calibrate -target-pivot 4 -target-fps 120"},
		{"profile.txt", "profile"},
		{"profile-vgg11.txt", "profile -net vgg11 -stages 4"},
		{"speedup.txt", "speedup"},
		{"speedup-model-csv.txt", "speedup -model -csv"},
	}
	for _, c := range cases {
		t.Run(c.pin, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := dispatch(strings.Fields(c.args), &stdout, &stderr); code != 0 {
				t.Fatalf("sgprs %s: exit %d: %s", c.args, code, stderr.String())
			}
			comparePin(t, c.pin, stdout.Bytes())
		})
	}
}

// TestPinnedTrace: run -o writes the kernel trace the separate sgprs-trace
// command wrote, as CSV and as Chrome trace JSON, and labels naive's
// whole-inference kernels by job as it labels SGPRS stages.
func TestPinnedTrace(t *testing.T) {
	for _, pin := range []struct {
		name  string
		sched []string
	}{
		{"trace.csv", nil},
		{"trace.json", nil},
		{"trace-naive.csv", []string{"-sched", "naive"}},
	} {
		path := filepath.Join(t.TempDir(), pin.name)
		var stdout, stderr bytes.Buffer
		args := append([]string{"run"}, pin.sched...)
		args = append(args, "-n", "4", "-horizon", "0.3", "-warmup", "0.03", "-o", path)
		if code := dispatch(args, &stdout, &stderr); code != 0 {
			t.Fatalf("sgprs %v: exit %d: %s", args, code, stderr.String())
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		comparePin(t, pin.name, got)
	}
}

func comparePin(t *testing.T, pin string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", pin))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the pinned output:\n--- got ---\n%s\n--- want ---\n%s", pin, got, want)
	}
}
