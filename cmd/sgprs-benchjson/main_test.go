package main

import (
	"bufio"
	"bytes"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestParseProcsSuffix: the GOMAXPROCS suffix is stripped only when every
// benchmark line carries the same one, so sub-benchmarks whose own names end
// in -<int> keep their names on a single-CPU run, and a name collision left
// after stripping is an error rather than a silently merged row.
func TestParseProcsSuffix(t *testing.T) {
	for _, tc := range []struct {
		name    string
		lines   []string
		want    []string
		wantErr string
	}{
		{
			name: "single CPU keeps sub-benchmark numbers",
			lines: []string{
				"BenchmarkAblationStageCount/stages-1   3  100 ns/op",
				"BenchmarkAblationStageCount/stages-2   3  100 ns/op",
				"BenchmarkAblationStageCount/stages-12  3  100 ns/op",
				"BenchmarkSingleRun/sgprs               3  100 ns/op",
			},
			want: []string{
				"BenchmarkAblationStageCount/stages-1",
				"BenchmarkAblationStageCount/stages-2",
				"BenchmarkAblationStageCount/stages-12",
				"BenchmarkSingleRun/sgprs",
			},
		},
		{
			name: "common suffix is stripped",
			lines: []string{
				"BenchmarkAblationStageCount/stages-1-8   3  100 ns/op",
				"BenchmarkAblationStageCount/stages-12-8  3  100 ns/op",
				"BenchmarkSingleRun/sgprs-8               3  100 ns/op",
			},
			want: []string{
				"BenchmarkAblationStageCount/stages-1",
				"BenchmarkAblationStageCount/stages-12",
				"BenchmarkSingleRun/sgprs",
			},
		},
		{
			name: "mixed suffixes are all kept",
			lines: []string{
				"BenchmarkParallel/jobs-2  3  100 ns/op",
				"BenchmarkParallel/jobs-4  3  100 ns/op",
			},
			want: []string{"BenchmarkParallel/jobs-2", "BenchmarkParallel/jobs-4"},
		},
		{
			name: "duplicate name is an error",
			lines: []string{
				"BenchmarkSingleRun/sgprs  3  100 ns/op",
				"BenchmarkSingleRun/sgprs  3  120 ns/op",
			},
			wantErr: `duplicate benchmark name "BenchmarkSingleRun/sgprs"`,
		},
		{
			// Two packages of one ./... run defining the same benchmark.
			name: "duplicate after stripping is an error",
			lines: []string{
				"BenchmarkEngineThroughput-4  3  100 ns/op",
				"pkg: sgprs/internal/des",
				"BenchmarkEngineThroughput-4  3  120 ns/op",
			},
			wantErr: `duplicate benchmark name "BenchmarkEngineThroughput"`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := "goos: linux\npkg: sgprs\n" + strings.Join(tc.lines, "\n") + "\nPASS\n"
			file, err := parse(bufio.NewScanner(strings.NewReader(in)))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, b := range file.Benchmarks {
				got = append(got, b.Name)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("names = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestReportMissingWarnings: a baseline benchmark missing from the fresh run
// is warned about, except under -gate when the gate does not match it — a
// gated run leaves those out by design.
func TestReportMissingWarnings(t *testing.T) {
	base := &File{Benchmarks: []Benchmark{
		{Name: "BenchmarkSingleRun/sgprs", AllocsPerOp: 10},
		{Name: "BenchmarkSingleRun/naive", AllocsPerOp: 10},
		{Name: "BenchmarkFig4a/tasks-4", AllocsPerOp: 10},
	}}
	cur := &File{Benchmarks: []Benchmark{{Name: "BenchmarkSingleRun/sgprs", AllocsPerOp: 10}}}
	for _, tc := range []struct {
		name      string
		gate      string
		warned    []string
		notWarned []string
	}{
		{
			name:   "no gate warns about every miss",
			warned: []string{"BenchmarkSingleRun/naive", "BenchmarkFig4a/tasks-4"},
		},
		{
			name:      "gated miss is warned, ungated miss is silent",
			gate:      "BenchmarkSingleRun/",
			warned:    []string{"BenchmarkSingleRun/naive"},
			notWarned: []string{"BenchmarkFig4a/tasks-4"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var gate *regexp.Regexp
			if tc.gate != "" {
				gate = regexp.MustCompile(tc.gate)
			}
			var buf bytes.Buffer
			report(&buf, base, cur, gate)
			out := buf.String()
			for _, name := range tc.warned {
				if !strings.Contains(out, `warning: baseline benchmark "`+name+`" missing`) {
					t.Errorf("no warning for %s:\n%s", name, out)
				}
			}
			for _, name := range tc.notWarned {
				if strings.Contains(out, `"`+name+`" missing`) {
					t.Errorf("unexpected warning for %s:\n%s", name, out)
				}
			}
			if strings.Contains(out, `"BenchmarkSingleRun/sgprs" missing`) {
				t.Errorf("warned about a benchmark the run has:\n%s", out)
			}
		})
	}
}
