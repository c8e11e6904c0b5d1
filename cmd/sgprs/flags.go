package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"text/tabwriter"

	"sgprs/internal/des"
	"sgprs/internal/exp"
	"sgprs/internal/runner"
)

// errUsage reports a flag error the flag set has already printed with the
// usage text.
var errUsage = errors.New("usage error")

// newFlags returns the flag set of subcommand name; it prints parse errors
// and -h help to stderr.
func newFlags(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("sgprs "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseFlags parses args into fs. Arguments that are not flags are a usage
// error, not silently ignored.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "unexpected arguments %q\n", fs.Args())
		fs.Usage()
		return errUsage
	}
	return nil
}

// poolFlags are the worker-pool flags of every subcommand that runs a sweep.
type poolFlags struct {
	jobs int
}

func addPoolFlags(fs *flag.FlagSet) *poolFlags {
	p := &poolFlags{}
	fs.IntVar(&p.jobs, "jobs", 0, "parallel workers (0 = all CPUs)")
	return p
}

// start returns the context a sweep runs under and its runner options.
// Ctrl-C or SIGTERM cancels the context: no new points are dispatched,
// in-flight points drain, and everything finished still prints. Call stop
// when the sweep is done.
func (p *poolFlags) start() (ctx context.Context, stop context.CancelFunc, opt runner.Options) {
	ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	return ctx, stop, runner.Options{Jobs: p.jobs}
}

// fpsPeriod turns -fps into a release period: the rate must be positive
// and finite, with a period of at least one nanosecond that fits the
// simulated clock.
func fpsPeriod(fps float64) (des.Time, error) {
	if !(fps > 0) || math.IsInf(fps, 0) {
		return 0, fmt.Errorf("-fps %v must be positive and finite", fps)
	}
	period := des.FromSeconds(1 / fps)
	if period == 0 || period == des.Never {
		return 0, fmt.Errorf("-fps %v gives a period of %vs, outside the simulated clock's range", fps, 1/fps)
	}
	return period, nil
}

// lookupExperiment returns a clone of the registered experiment name.
func lookupExperiment(name string) (*exp.Spec, error) {
	spec, ok := exp.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q (registered: %s)", name, strings.Join(exp.Names(), ", "))
	}
	return spec, nil
}

// listCmd prints the experiment registry as an aligned table, each
// experiment's axes with their value ranges.
func listCmd(args []string, stdout, stderr io.Writer) error {
	if err := parseFlags(newFlags("list", stderr), args); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "experiment\tshape\taxes\tdescription\t\n")
	for _, s := range exp.List() {
		axes := make([]string, len(s.Axes))
		for i, a := range s.Axes {
			axes[i] = a.String()
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t\n",
			s.Name, exp.Summarize(s), strings.Join(axes, " "), s.Description)
	}
	return tw.Flush()
}
