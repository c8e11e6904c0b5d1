package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/gpu"
	"sgprs/internal/speedup"
)

func runTraced(t *testing.T) *Recorder {
	t.Helper()
	eng := des.NewEngine()
	cfg := gpu.DefaultConfig()
	dev, err := gpu.NewDevice(eng, speedup.DefaultModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	dev.AddHook(rec)
	ctx, _ := dev.CreateContext("cp0", 34)
	s1 := ctx.AddStream("hi0", gpu.HighPriority)
	s2 := ctx.AddStream("lo0", gpu.LowPriority)
	for i := 0; i < 3; i++ {
		s1.Submit(&gpu.Kernel{
			Arg:    "k-hi",
			Shares: []speedup.WorkShare{{Class: speedup.Conv, Work: 2}},
		})
		s2.Submit(&gpu.Kernel{
			Arg:    "k-lo",
			Shares: []speedup.WorkShare{{Class: speedup.ReLU, Work: 1}},
		})
	}
	eng.Run()
	return rec
}

func TestRecorderCollectsSpans(t *testing.T) {
	rec := runTraced(t)
	if got := len(rec.Spans()); got != 6 {
		t.Fatalf("spans = %d, want 6", got)
	}
	for _, s := range rec.Spans() {
		if s.End <= s.Start {
			t.Errorf("span %q has non-positive duration", s.Label)
		}
		if s.Context != "cp0" {
			t.Errorf("span context = %q", s.Context)
		}
		if !strings.Contains(s.Stream, "cp0/") {
			t.Errorf("span stream = %q", s.Stream)
		}
		if s.Duration() != s.End-s.Start {
			t.Error("Duration inconsistent")
		}
	}
}

func TestChromeTraceExport(t *testing.T) {
	rec := runTraced(t)
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(events) != 6 {
		t.Fatalf("events = %d", len(events))
	}
	for _, e := range events {
		if e["ph"] != "X" {
			t.Errorf("phase = %v", e["ph"])
		}
		if e["dur"].(float64) <= 0 {
			t.Errorf("duration = %v", e["dur"])
		}
		if e["pid"] != "cp0" {
			t.Errorf("pid = %v", e["pid"])
		}
	}
}

func TestCSVExport(t *testing.T) {
	rec := runTraced(t)
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 7 { // header + 6 spans
		t.Fatalf("lines = %d, want 7", len(lines))
	}
	if !strings.HasPrefix(lines[0], "label,context,stream,start_ms") {
		t.Errorf("header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "k-hi,") && !strings.HasPrefix(l, "k-lo,") {
			t.Errorf("row = %q", l)
		}
	}
}

// TestAbortedKernelSpansItsLastLaunch: a kernel aborted mid-flight and
// resubmitted retires once, and its one span starts at its relaunch.
func TestAbortedKernelSpansItsLastLaunch(t *testing.T) {
	eng := des.NewEngine()
	dev, err := gpu.NewDevice(eng, speedup.DefaultModel(), gpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	dev.AddHook(rec)
	ctx, _ := dev.CreateContext("cp0", 34)
	s := ctx.AddStream("lo0", gpu.LowPriority)
	k := &gpu.Kernel{Arg: "retried", Shares: []speedup.WorkShare{{Class: speedup.Conv, Work: 200}}}
	s.Submit(k)
	var relaunch des.Time
	eng.AfterFunc(des.Millisecond, "abort", func(now des.Time) {
		dev.Abort(k, now)
		s.Submit(k)
		relaunch = now + gpu.DefaultConfig().LaunchOverhead
	})
	eng.Run()
	spans := rec.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	if sp := spans[0]; sp.Label != "retried" || sp.Start != relaunch || sp.End != eng.Now() {
		t.Errorf("span = %+v, want retried from %v to %v", sp, relaunch, eng.Now())
	}
}

func TestEmptyExports(t *testing.T) {
	rec := NewRecorder()
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "[]" {
		t.Errorf("empty chrome trace = %q", buf.String())
	}
	buf.Reset()
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(buf.String()), "\n"); len(lines) != 1 {
		t.Errorf("empty csv lines = %d", len(lines))
	}
}

// TestTracksNameTheirDevice: two devices on one engine, both with a context
// "cp0", export as two tracks named by device.
func TestTracksNameTheirDevice(t *testing.T) {
	eng := des.NewEngine()
	rec := NewRecorder()
	for id := range 2 {
		dev, err := gpu.NewDevice(eng, speedup.DefaultModel(), gpu.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		dev.SetID(id)
		dev.AddHook(rec)
		ctx, _ := dev.CreateContext("cp0", 34)
		ctx.AddStream("hi0", gpu.HighPriority).Submit(&gpu.Kernel{
			Arg:    "k",
			Shares: []speedup.WorkShare{{Class: speedup.Conv, Work: 1}},
		})
	}
	eng.Run()
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct{ Pid, Tid string }
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	pids := map[string]string{}
	for _, e := range events {
		pids[e.Pid] = e.Tid
	}
	want := map[string]string{"gpu0/cp0": "gpu0/cp0/s0(high)", "gpu1/cp0": "gpu1/cp0/s0(high)"}
	if !reflect.DeepEqual(pids, want) {
		t.Errorf("tracks = %v, want %v", pids, want)
	}
	buf.Reset()
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), ",gpu1/cp0,gpu1/cp0/s0(high),") {
		t.Errorf("csv names no device:\n%s", buf.String())
	}
}
