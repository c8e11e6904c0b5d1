// Command sgprs-benchjson converts `go test -bench` output (stdin) into
// machine-readable JSON, so the repository's performance trajectory is
// trackable across PRs (BENCH_<n>.json), and optionally compares the fresh
// numbers — ns/op and allocs/op — against a committed baseline.
//
// The delta report is informational by default: the command exits 0 on
// valid input, whatever the regression, and a baseline benchmark missing
// from the fresh run (renamed or retired) is a warning, not an error — so
// CI can surface drift in the log without turning benchmark churn into a
// gate.
//
// -gate promotes a pinned subset to a hard gate: every baseline benchmark
// whose name matches the regexp must be present in the fresh run, and its
// allocs/op must not regress by more than -max-allocs-regress percent. With
// -gate, the missing-benchmark warning covers only the benches it matches.
// Allocations — unlike ns/op — are deterministic enough to gate on with
// single-iteration CI runs; a one-line leak in the simulator's steady state
// multiplies allocs/op immediately.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -benchtime 3x . | sgprs-benchjson -out BENCH_5.json -baseline BENCH_3.json
//	go test -run '^$' -bench <pinned> -benchmem -benchtime 1x . | sgprs-benchjson -baseline BENCH_5.json \
//	    -gate 'BenchmarkSingleRun/|BenchmarkScenarioRegeneration/(uncached|cold|warm)|BenchmarkLongHorizon/' \
//	    -max-allocs-regress 25
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present with -benchmem (-1 without).
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Metrics holds custom b.ReportMetric values (unit → value).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is the BENCH_<n>.json schema.
type File struct {
	Package    string      `json:"package,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sgprs-benchjson: ")
	out := flag.String("out", "", "write JSON here (default stdout)")
	baseline := flag.String("baseline", "", "committed baseline JSON to diff against (report-only)")
	gate := flag.String("gate", "", "regexp of baseline benchmarks whose allocs/op regressions fail the run")
	maxAllocsRegress := flag.Float64("max-allocs-regress", 25, "allowed allocs/op regression for gated benchmarks, in percent")
	flag.Parse()
	var gateRE *regexp.Regexp
	if *gate != "" {
		var err error
		if gateRE, err = regexp.Compile(*gate); err != nil {
			log.Fatalf("bad -gate pattern: %v", err)
		}
	}

	// Read the baseline before writing, so -out and -baseline may be the
	// same file.
	var base *File
	if *baseline != "" {
		if b, err := os.ReadFile(*baseline); err == nil {
			base = &File{}
			if err := json.Unmarshal(b, base); err != nil {
				log.Printf("baseline %s unreadable (%v); skipping delta", *baseline, err)
				base = nil
			}
		} else {
			log.Printf("no baseline at %s; skipping delta", *baseline)
		}
	}

	file, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		log.Fatal(err)
	}
	if len(file.Benchmarks) == 0 {
		log.Fatal("no benchmark lines on stdin")
	}

	enc, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}

	if base != nil {
		report(os.Stderr, base, file, gateRE)
		if gateRE != nil {
			if failures := checkGate(base, file, gateRE, *maxAllocsRegress); len(failures) > 0 {
				for _, f := range failures {
					fmt.Fprintf(os.Stderr, "GATE FAILURE: %s\n", f)
				}
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "allocs/op gate passed (limit +%.0f%%)\n", *maxAllocsRegress)
		}
	}
}

// checkGate enforces the allocs/op regression gate: every baseline benchmark
// matching the pattern must appear in the fresh run (a silently renamed or
// dropped pinned benchmark would otherwise dodge the gate forever) with
// allocs/op within the allowed regression. Benchmarks without -benchmem data
// on either side are skipped.
func checkGate(base, cur *File, gate *regexp.Regexp, maxRegressPct float64) []string {
	byName := map[string]Benchmark{}
	for _, b := range cur.Benchmarks {
		byName[b.Name] = b
	}
	var failures []string
	for _, o := range base.Benchmarks {
		if !gate.MatchString(o.Name) {
			continue
		}
		b, ok := byName[o.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("pinned benchmark %q missing from this run", o.Name))
			continue
		}
		if o.AllocsPerOp < 0 || b.AllocsPerOp < 0 {
			continue
		}
		limit := float64(o.AllocsPerOp) * (1 + maxRegressPct/100)
		if float64(b.AllocsPerOp) > limit {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %d exceeds baseline %d by more than %.0f%%",
				o.Name, b.AllocsPerOp, o.AllocsPerOp, maxRegressPct))
		}
	}
	return failures
}

// parse consumes `go test -bench` output. Benchmark lines look like
//
//	BenchmarkName-8   3   75296901 ns/op   11691829 B/op   285225 allocs/op   740.9 sat_fps
//
// where the -8 GOMAXPROCS suffix, the memory columns, and custom metric
// columns are all optional. See stripProcsSuffix for when the suffix is
// removed; two lines left with the same name are an error.
func parse(sc *bufio.Scanner) (*File, error) {
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	file := &File{}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg:"):
			file.Package = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			file.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		name := fields[0]
		iters, err1 := strconv.ParseInt(fields[1], 10, 64)
		ns, err2 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("malformed benchmark line: %q", line)
		}
		b := Benchmark{Name: name, Iterations: iters, NsPerOp: ns, BytesPerOp: -1, AllocsPerOp: -1}
		// Remaining fields come in (value, unit) pairs.
		for i := 3; i+2 < len(fields); i += 2 {
			val, unit := fields[i+1], fields[i+2]
			switch unit {
			case "B/op":
				b.BytesPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				b.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
			default:
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					continue
				}
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		file.Benchmarks = append(file.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	stripProcsSuffix(file.Benchmarks)
	seen := map[string]bool{}
	for _, b := range file.Benchmarks {
		if seen[b.Name] {
			return nil, fmt.Errorf("duplicate benchmark name %q", b.Name)
		}
		seen[b.Name] = true
	}
	return file, nil
}

// stripProcsSuffix removes the GOMAXPROCS suffix `go test` appends to every
// benchmark name when GOMAXPROCS > 1. A name's own trailing `-<int>` (a sub-
// benchmark like "stages-12") looks the same, so the suffix is stripped only
// when every line of the run carries the same one; at GOMAXPROCS=1 there is
// none, and the names are kept whole.
func stripProcsSuffix(bs []Benchmark) {
	suffix := ""
	for i, b := range bs {
		s := procsSuffix(b.Name)
		if s == "" || (i > 0 && s != suffix) {
			return
		}
		suffix = s
	}
	for i := range bs {
		bs[i].Name = strings.TrimSuffix(bs[i].Name, suffix)
	}
}

// procsSuffix returns name's trailing "-<int>", or "" when it has none.
func procsSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i <= 0 {
		return ""
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return ""
	}
	return name[i:]
}

// report prints a benchstat-style delta table covering both ns/op and
// allocs/op to w (report-only; never fails). Benchmarks present only in the
// baseline — typically renamed or retired benches — are listed as warnings
// rather than breaking the run, so `make bench-json` survives bench churn.
// With a gate, only the missing baseline benchmarks it matches are warned
// about: a run restricted to the gate's benches misses the others by
// design, and warning about them would bury a real rename.
func report(w io.Writer, base, cur *File, gate *regexp.Regexp) {
	old := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		old[b.Name] = b
	}
	names := make([]string, 0, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		names = append(names, b.Name)
	}
	sort.Strings(names)
	byName := map[string]Benchmark{}
	for _, b := range cur.Benchmarks {
		byName[b.Name] = b
	}
	fmt.Fprintf(w, "benchmark delta vs baseline (report-only; single-iteration smoke numbers are noisy):\n")
	fmt.Fprintf(w, "%-64s %14s %14s %8s %12s %12s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta")
	for _, name := range names {
		b := byName[name]
		o, ok := old[name]
		if !ok {
			fmt.Fprintf(w, "%-64s %14s %14.0f %8s %12s %12s %8s\n",
				name, "-", b.NsPerOp, "new", "-", allocsCell(b.AllocsPerOp), "new")
			continue
		}
		fmt.Fprintf(w, "%-64s %14.0f %14.0f %8s %12s %12s %8s\n",
			name, o.NsPerOp, b.NsPerOp, pctDelta(o.NsPerOp, b.NsPerOp),
			allocsCell(o.AllocsPerOp), allocsCell(b.AllocsPerOp),
			allocsDelta(o.AllocsPerOp, b.AllocsPerOp))
	}
	missing := make([]string, 0, len(old))
	for name := range old {
		if _, ok := byName[name]; !ok && (gate == nil || gate.MatchString(name)) {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(w, "warning: baseline benchmark %q missing from this run (renamed or removed?); skipping its delta\n", name)
	}
}

// pctDelta renders the relative change, or "~" when the base is unusable.
func pctDelta(old, new float64) string {
	if old <= 0 {
		return "~"
	}
	return fmt.Sprintf("%+.1f%%", (new-old)/old*100)
}

// allocsCell renders an allocs/op figure, or "-" when -benchmem was absent.
func allocsCell(v int64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

// allocsDelta renders the allocs/op change when both sides measured it.
func allocsDelta(old, new int64) string {
	if old < 0 || new < 0 {
		return "~"
	}
	return pctDelta(float64(old), float64(new))
}
