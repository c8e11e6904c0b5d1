package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"
)

// layers are the simulator's packages (sgprs/internal/<layer>) a profile
// sample can be charged to, plus three buckets: ff (the fast-forward files
// of several packages), bench (this program's own code) and runtime
// (samples with no frame of this module, such as GC).
var layers = []string{
	"des", "gpu", "core", "naive", "sched", "rt", "workload", "metrics", "stats",
	"sim", "cluster", "fault", "memo", "profile", "dnn", "speedup", "exp", "runner",
	"ff", "bench", "runtime",
}

// ffFiles are the fast-forward files, matched by path suffix; any
// internal/<pkg>/ff.go counts too.
var ffFiles = []string{"/internal/des/warp.go", "/internal/sim/fastforward.go"}

// frameLayer maps one profile frame to its layer, or "" for a frame outside
// this module's layers.
func frameLayer(fn, file string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	pkg, ok := strings.CutPrefix(fn, "sgprs/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ = strings.Cut(pkg, ".")
	if i := strings.Index(file, "/internal/"); i >= 0 {
		rel := file[i:]
		if strings.HasSuffix(rel, "/ff.go") && strings.Count(rel, "/") == 3 {
			return "ff"
		}
		for _, f := range ffFiles {
			if rel == f {
				return "ff"
			}
		}
	}
	if slices.Contains(layers, pkg) {
		return pkg
	}
	return ""
}

// fold sums the samples of a `go tool pprof -traces -lines` listing by
// layer. A sample is charged to its innermost frame that belongs to a layer,
// or to runtime when it has none. Samples inside runtime/pprof are the
// profiler's own work and are dropped. Time values are returned in
// microseconds.
func fold(listing string) (map[string]float64, error) {
	out := map[string]float64{}
	var (
		started bool // past the header
		sample  bool // inside a sample
		value   float64
		layer   string
		drop    bool
	)
	flush := func() {
		if !sample {
			return
		}
		if layer == "" {
			layer = "runtime"
		}
		if !drop {
			out[layer] += value
		}
		sample, layer, drop = false, "", false
	}
	sc := bufio.NewScanner(strings.NewReader(listing))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started = true
			continue
		}
		frame := strings.TrimSpace(line)
		if !started || frame == "" {
			continue
		}
		// A sample may open with label lines ("bytes:  48B"); then a line
		// starts with its value, and the following frames are indented
		// past the value column.
		head, rest, _ := strings.Cut(frame, " ")
		if strings.HasSuffix(head, ":") {
			continue
		}
		if !strings.HasPrefix(line, strings.Repeat(" ", 13)) {
			v, err := parseValue(head)
			if err != nil {
				return nil, err
			}
			sample, value, frame = true, v, strings.TrimSpace(rest)
		}
		if !sample {
			continue
		}
		frame = strings.TrimSuffix(frame, " (inline)")
		fn, file := frame, ""
		if i := strings.LastIndexByte(frame, ' '); i >= 0 {
			fn, file = frame[:i], frame[i+1:]
			if j := strings.LastIndexByte(file, ':'); j >= 0 {
				file = file[:j]
			}
		}
		if strings.HasPrefix(fn, "runtime/pprof.") {
			drop = true
		}
		if layer == "" {
			layer = frameLayer(fn, file)
		}
	}
	flush()
	return out, sc.Err()
}

// parseValue reads a pprof sample value: a count, or a duration such as
// 10ms, converted to microseconds.
func parseValue(s string) (float64, error) {
	units := []struct {
		suffix string
		us     float64
	}{{"ns", 1e-3}, {"us", 1}, {"µs", 1}, {"ms", 1e3}, {"s", 1e6}}
	scale := 1.0
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			s, scale = num, u.us
			break
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bench: unexpected pprof value %q", s)
	}
	return v * scale, nil
}

// foldProfile folds a profile file with the toolchain's pprof.
func foldProfile(path, sampleIndex string) (map[string]float64, error) {
	args := []string{"tool", "pprof", "-symbolize=none", "-traces", "-lines"}
	if sampleIndex != "" {
		args = append(args, "-sample_index="+sampleIndex)
	}
	cmd := exec.Command("go", append(args, path)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("bench: go tool pprof %s: %v\n%s", path, err, stderr.String())
	}
	return fold(string(out))
}

// writeAllocs snapshots the cumulative allocation profile after two forced
// collections, so it covers every allocation made before the call.
func writeAllocs(path string) error {
	runtime.GC()
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanLog keeps Chrome Trace Event spans in memory until the run ends. A nil
// log records nothing.
type spanLog struct {
	t0    time.Time
	spans []traceEvent
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func (l *spanLog) add(name string, start, end time.Time, args map[string]any) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, traceEvent{
		Name: name,
		Ph:   "X",
		TS:   float64(start.Sub(l.t0).Nanoseconds()) / 1e3,
		Dur:  float64(end.Sub(start).Nanoseconds()) / 1e3,
		PID:  1,
		TID:  1,
		Args: args,
	})
}

func (l *spanLog) write(path string) error {
	b, err := json.Marshal(map[string]any{"traceEvents": l.spans, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
