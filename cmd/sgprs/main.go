// Command sgprs regenerates the paper's results on the simulator, one
// subcommand per tool: run, sweep, analyze, calibrate, profile, speedup and
// list. `sgprs` alone lists them; `sgprs <subcommand> -h` lists a
// subcommand's flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// subcommand runs one tool on its arguments. It writes results to stdout
// and diagnostics to stderr, and returns the error that ends the run.
type subcommand func(args []string, stdout, stderr io.Writer) error

var subcommands = []struct {
	name, summary string
	run           subcommand
}{
	{"run", "one simulation run and its metrics; -o writes a kernel trace", runCmd},
	{"sweep", "declarative experiments: paper scenarios, registered experiments, JSON files", sweepCmd},
	{"analyze", "schedulability analysis of an identical-task set", analyzeCmd},
	{"calibrate", "search the device gain cap for target saturation FPS and pivot", calibrateCmd},
	{"profile", "per-stage WCETs and virtual deadlines of a network", profileCmd},
	{"speedup", "Figure 1: speedup gain per SM count", speedupCmd},
	{"list", "the experiment registry", listCmd},
}

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// dispatch runs the subcommand args name and returns the exit status: 0 on
// success (and for -h), 2 for a usage error, 1 for any other failure.
func dispatch(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	for _, c := range subcommands {
		if c.name != args[0] {
			continue
		}
		err := c.run(args[1:], stdout, stderr)
		switch {
		case err == nil || errors.Is(err, flag.ErrHelp):
			return 0
		case errors.Is(err, errUsage):
			return 2
		}
		fmt.Fprintf(stderr, "sgprs %s: %v\n", c.name, err)
		return 1
	}
	fmt.Fprintf(stderr, "sgprs: unknown subcommand %q\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: sgprs <subcommand> [flags]")
	for _, c := range subcommands {
		fmt.Fprintf(w, "  %-10s %s\n", c.name, c.summary)
	}
}
