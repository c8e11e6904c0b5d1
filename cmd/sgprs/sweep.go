package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"sgprs/internal/config"
	"sgprs/internal/exp"
	"sgprs/internal/memo"
	"sgprs/internal/report"
	"sgprs/internal/runner"
)

// sweepCmd runs a declarative experiment: a paper scenario (-scenario, the
// Figure 3/4 sweeps), a registered experiment (-experiment; see `sgprs
// list`), or a JSON experiment file (-config). Every flag set on the
// command line overrides the spec so chosen, whichever its source.
//
// Runs fan out across a worker pool (-jobs); results are bit-identical to a
// sequential run for any worker count. A failing point is reported with its
// (variant, task count) and the sweep keeps going: every finished point is
// still printed, and the exit status is non-zero. Ctrl-C cancels cleanly.
// The offline phase is memoized across the sweep's runs (-offline-stats
// reports its traffic), and each worker reuses one run session, so memory
// stays flat however long the -horizon.
//
// Open-loop traffic rides on any spec: -arrival swaps the periodic releases
// for a stochastic process, -trace replays a recorded arrival log, -rate
// sweeps the intensity as an extra axis, and -slo reports an objective's hit
// rate. Fleet runs (DESIGN.md §15) layer on the same way: -devices,
// -placement, -failover and -admit, with device failure windows in the
// -faults block's device_faults list. These flags fill the same
// config.Experiment fields a JSON file does, and one function,
// config.Experiment.Overlay, writes both into the spec's runs.
//
//	sgprs sweep -scenario 1 [-tasks 1..30] [-horizon 10] [-seed 1] [-jobs N] [-csv] [-progress]
//	sgprs sweep -experiment overload-tail [-rate 1,1.5,2] [-slo 33.3]
//	sgprs sweep -experiment fleet-failover [-failover retry] [-admit 0.8]
//	sgprs sweep -scenario 2 -devices 3 -placement context-fit -faults '{"device_faults":[{"device":1,"start_sec":3,"restart_sec":5}]}'
//	sgprs sweep -config experiment.json [-tasks 4,8]
func sweepCmd(args []string, stdout, stderr io.Writer) error {
	f, spec, err := parseSweep(args, stderr)
	if err != nil {
		return err
	}
	ctx, stop, opt := f.pool.start()
	defer stop()
	if f.progress {
		opt.Progress = func(done, total int, r runner.JobResult) {
			fmt.Fprintf(stderr, "[%d/%d] %s n=%d\n", done, total, r.Job.Variant, r.Job.Tasks)
		}
	}
	rs, runErr := exp.Run(ctx, spec, opt)
	if f.offlineStats {
		fmt.Fprintln(stderr, memo.Default().Stats())
	}
	if rs == nil {
		return runErr
	}
	title := spec.Name
	if spec.Description != "" {
		title += " — " + spec.Description
	}
	scen := &report.Scenario{Title: title, TaskCounts: rs.TaskCounts, Series: rs.Series(), Order: rs.Order}
	if f.csv {
		err = scen.WriteCSV(stdout)
	} else {
		err = scen.WriteText(stdout)
	}
	if err != nil {
		return err
	}
	// Per-job failures (and cancellation) never discard finished points.
	return runErr
}

// sweepFlags holds the parsed sweep flags. The spec settings decode into
// e, the serialisable experiment a JSON file fills.
type sweepFlags struct {
	e                                  config.Experiment
	config, experiment                 string
	tasks, rate, arrival, trace, fault string
	period, admit                      float64
	csv, progress, offlineStats        bool
	pool                               *poolFlags
}

// parseSweep parses the sweep flags and resolves the spec they describe.
func parseSweep(args []string, stderr io.Writer) (*sweepFlags, *exp.Spec, error) {
	fs := newFlags("sweep", stderr)
	f := &sweepFlags{pool: addPoolFlags(fs)}
	fs.IntVar(&f.e.Scenario, "scenario", 1, "paper scenario: 1 (two contexts) or 2 (three contexts)")
	fs.StringVar(&f.experiment, "experiment", "", "run a registered experiment by name (see `sgprs list`)")
	fs.StringVar(&f.config, "config", "", "experiment JSON file (flags set on the command line override its settings)")
	fs.StringVar(&f.tasks, "tasks", "1..30", "task counts: \"a..b\" range or comma-separated list")
	fs.Float64Var(&f.e.HorizonSec, "horizon", 10, "simulated seconds per point")
	fs.Uint64Var(&f.e.Seed, "seed", 1, "simulation seed")
	fs.BoolVar(&f.progress, "progress", false, "report per-point completion on stderr")
	fs.BoolVar(&f.csv, "csv", false, "emit long-form CSV instead of tables")
	fs.BoolVar(&f.offlineStats, "offline-stats", false, "report offline-cache hit/miss counts on stderr")
	fs.StringVar(&f.arrival, "arrival", "", "open-loop arrival process: periodic|poisson|bursty|diurnal, optionally kind:rate (arrivals/s per task, 0 = natural rate; mmpp and full control via -config)")
	fs.Float64Var(&f.period, "arrival-period", 0, "cycle length in seconds for bursty/diurnal -arrival processes (0 = defaults: 5 s diurnal cycle, 1 s on + 1 s off bursty windows); bursty splits the period into equal halves")
	fs.StringVar(&f.trace, "trace", "", "replay a trace file (.csv or .json) as the arrival process (overrides -arrival)")
	fs.StringVar(&f.rate, "rate", "", "arrival-rate axis: comma-separated intensity multipliers (e.g. 1,1.25,1.5); needs -arrival, -trace, or an experiment with arrivals")
	fs.Float64Var(&f.e.SLOMS, "slo", 0, "response-time SLO in milliseconds (0 = none); reported as SLO hit rate")
	fs.StringVar(&f.fault, "faults", "", "fault-injection config applied to every variant: inline JSON ('{\"transient\":{\"prob\":0.05}}') or a file path")
	fs.IntVar(&f.e.Devices, "devices", 0, "fleet size: run every variant on N devices behind the dispatcher (0 = leave the spec as declared; 1 = force single-device)")
	fs.StringVar(&f.e.Placement, "placement", "", "fleet chain-homing policy: bin-pack|context-fit|load-steal (needs a fleet: -devices > 1 or a fleet experiment)")
	fs.StringVar(&f.e.Failover, "failover", "", "device-crash policy: migrate|retry|shed (needs a fleet)")
	fs.Float64Var(&f.admit, "admit", -1, "fleet admission ceiling: shed new releases while surviving capacity is below this utilization fraction (-1 = leave the spec as declared)")
	if err := parseFlags(fs, args); err != nil {
		return nil, nil, err
	}
	if err := f.decode(); err != nil {
		return nil, nil, err
	}
	spec, err := f.resolve()
	if err != nil {
		return nil, nil, err
	}
	set := map[string]string{}
	fs.Visit(func(fl *flag.Flag) { set[fl.Name] = "-" + fl.Name })
	if f.admit == -1 { // -1 leaves the spec's ceiling as declared
		delete(set, "admit")
	}
	return f, spec, f.e.Overlay(spec, func(name string) string { return set[name] })
}

// decode fills the experiment fields that take parsing (lists, the arrival
// process, the fault block) and rejects malformed values naming the flag.
func (f *sweepFlags) decode() error {
	var err error
	if f.e.TaskCounts, err = config.ParseInts(f.tasks, "task count", 1, math.MaxInt); err != nil {
		return err
	}
	if f.rate != "" {
		if f.e.RateFactors, err = config.ParseFloats(f.rate, "rate factor"); err != nil {
			return err
		}
	}
	if !(f.e.SLOMS >= 0) || math.IsInf(f.e.SLOMS, 1) {
		return fmt.Errorf("invalid -slo %v (want a finite number of milliseconds >= 0; 0 = none)", f.e.SLOMS)
	}
	if f.admit != -1 && !(f.admit >= 0 && f.admit <= 1) {
		return fmt.Errorf("invalid -admit %v (want a fraction in [0, 1], or -1 to leave the spec as declared)", f.admit)
	}
	if f.admit != -1 {
		f.e.AdmitCeiling = f.admit
	}
	switch {
	case f.trace != "":
		f.e.Arrival = &config.Arrival{Kind: "trace", Trace: f.trace}
	case f.arrival != "":
		if f.e.Arrival, err = arrivalFlag(f.arrival, f.period); err != nil {
			return err
		}
	}
	f.e.Faults, err = config.ParseFaults(f.fault)
	return err
}

// arrivalFlag decodes -arrival ("poisson", "poisson:45", "bursty:60", ...)
// and -arrival-period into an arrival block. The period is the diurnal
// cycle, or the bursty on+off window pair split into equal halves; zero
// keeps the defaults (5 s diurnal cycle, 1 s + 1 s bursty windows). MMPP
// and custom windows go through a -config file's arrival block.
func arrivalFlag(s string, periodSec float64) (*config.Arrival, error) {
	kind, rest, _ := strings.Cut(s, ":")
	a := &config.Arrival{Kind: strings.TrimSpace(kind)}
	if rest != "" {
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, fmt.Errorf("invalid arrival rate %q", rest)
		}
		a.Rate = v
	}
	if !(periodSec >= 0) || math.IsInf(periodSec, 1) {
		return nil, fmt.Errorf("invalid -arrival-period %v (want a finite number of seconds >= 0; 0 = defaults)", periodSec)
	}
	if periodSec > 0 && a.Kind != "bursty" && a.Kind != "diurnal" {
		return nil, fmt.Errorf("-arrival-period applies only to bursty and diurnal arrivals, not %q", a.Kind)
	}
	switch a.Kind {
	case "bursty":
		a.OnSec = 1
		if periodSec > 0 {
			a.OnSec = periodSec / 2
		}
		a.OffSec = a.OnSec
	case "diurnal":
		a.PeriodSec = 5
		if periodSec > 0 {
			a.PeriodSec = periodSec
		}
		a.MaxRate, a.Rate = a.Rate, 0
	case "mmpp", "trace":
		return nil, fmt.Errorf("-arrival %s needs a -config arrival block or -trace", a.Kind)
	}
	return a, nil
}

// resolve picks the spec the flags override: a JSON file (with its own
// fields already overlaid), a registry entry, or the paper scenario.
func (f *sweepFlags) resolve() (*exp.Spec, error) {
	switch {
	case f.config != "":
		e, err := config.Load(f.config)
		if err != nil {
			return nil, err
		}
		return e.Spec(f.config)
	case f.experiment != "":
		return lookupExperiment(f.experiment)
	}
	return exp.Scenario(f.e.Scenario, f.e.TaskCounts, f.e.HorizonSec, f.e.Seed)
}
