// Command bench measures the simulator's host speed on four fixed workloads
// and checks every simulated result against committed golden digests.
//
// With -workload it runs one workload in this process and prints, as its last
// line, one JSON object with the run's end-to-end metrics (or, with -trace 1,
// its per-layer metrics). Without it, it runs each workload of -workloads in
// a child process of its own and prints a summary. -compare reads two run
// sets written by -out and classifies every metric; -update rewrites the
// goldens. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 25

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		dir     = fs.String("dir", ".", "the benchmark's source directory (golden.json, out/)")
		one     = fs.String("workload", "", "run this workload in-process and print its JSON result line")
		list    = fs.String("workloads", strings.Join(workloadNames(), ","), "comma-separated workloads to run, each in a child process")
		seed    = fs.Uint64("seed", 1, "run seed of every cell")
		seconds = fs.Float64("seconds", defaultSeconds, "how long the measured passes of one workload last")
		trace   = fs.Int("trace", 0, "1: profile each layer and write span files to <dir>/out")
		out     = fs.String("out", "", "write the run's detailed record (or, without -workload, the run set) to this file")
		compare = fs.Bool("compare", false, "compare two run sets, -compare a.json b.json, with the bounds of <dir>/../BENCHMARK.json")
		update  = fs.Bool("update", false, "recompute golden.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("bench: -trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("bench: -seconds must be positive, got %v", *seconds)
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("bench: -compare takes two run-set files")
		}
		return compareSets(os.Stdout, filepath.Join(*dir, "..", "BENCHMARK.json"), fs.Arg(0), fs.Arg(1))
	case fs.NArg() != 0:
		return fmt.Errorf("bench: unexpected arguments %q", fs.Args())
	case *update:
		return updateGoldens(*dir)
	case *one != "":
		w, err := findWorkload(*one)
		if err != nil {
			return err
		}
		rec, err := measure(w, opts{dir: *dir, seed: *seed, seconds: *seconds, trace: *trace == 1})
		if err != nil {
			return err
		}
		if *out != "" {
			if err := writeJSON(*out, rec); err != nil {
				return err
			}
		}
		line, err := json.Marshal(rec.result())
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !rec.Correct {
			return fmt.Errorf("bench: %s: %d of %d cells failed the %s check", w.name, rec.Failed, rec.Attempted, rec.Check)
		}
		return nil
	default:
		return runSet(*dir, strings.Split(*list, ","), *seed, *seconds, *trace, *out)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runSet runs each workload in a child process of its own, so each gets a
// fresh heap and its own peak RSS, and prints the collected metrics.
func runSet(dir string, names []string, seed uint64, seconds float64, trace int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "out")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	set := runSetFile{Seed: seed}
	for _, name := range names {
		if _, err := findWorkload(name); err != nil {
			return err
		}
		path := filepath.Join(tmp, name+".record.json")
		cmd := exec.Command(self, "-dir", dir, "-workload", name,
			"-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace), "-out", path)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("bench: workload %s: %w", name, err)
		}
		var rec record
		if err := readJSON(path, &rec); err != nil {
			return err
		}
		set.Runs = append(set.Runs, rec)
	}
	fmt.Println()
	printSet(os.Stdout, set)
	if out != "" {
		return writeJSON(out, set)
	}
	return nil
}

// runSetFile is what -out writes without -workload, and what -compare reads.
type runSetFile struct {
	Seed uint64   `json:"seed"`
	Runs []record `json:"runs"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return nil
}

// sortedKeys returns a map's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
