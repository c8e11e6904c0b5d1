// Command sgprs-sweep runs declarative experiments: the paper's Figures 3
// and 4 scenario sweeps, any experiment in the process-wide registry
// (-experiment, enumerate with -list), or a JSON experiment file (-config).
//
// Runs fan out across a worker pool (-jobs, default all CPUs); results are
// bit-identical to a sequential run for any worker count. A failing point
// is reported with its (variant, task count) on stderr and the sweep keeps
// going: every finished point is still printed, and the exit status is
// non-zero. Interrupting the sweep (Ctrl-C) cancels cleanly: in-flight
// points drain, finished points print, undispatched points are attributed
// to the cancellation.
//
// The offline phase (graph calibration, WCET profiling) is memoized across
// the sweep's runs — bit-identical to re-profiling, just not redundant.
// -no-offline-cache disables the cache; -offline-stats reports its traffic.
// Each worker additionally reuses one run session (engine, device, job pool,
// task structures) across every point it drains, and metrics stream as each
// run progresses, so memory stays flat however long the -horizon.
//
// Open-loop traffic rides on any of these: -arrival swaps the closed-loop
// periodic releases for a stochastic process (poisson, bursty, ...), -trace
// replays a recorded arrival log, -rate sweeps the intensity as an extra
// axis, and -slo reports a response-time objective's hit rate alongside the
// overload metrics (drop rate, p99/p999, backlog depth).
//
// Fleet runs (DESIGN.md §15) layer on the same way: -devices puts every
// variant on an N-device fleet behind the dispatcher, -placement picks the
// chain-homing policy, -failover the device-crash policy, and -admit the
// degraded-capacity admission ceiling; device failure windows ride in the
// -faults block's device_faults list.
//
// Usage:
//
//	sgprs-sweep -list
//	sgprs-sweep -experiment jitter-ladder [-tasks 1..30] [-horizon 10] [-seed 1] [-jobs N] [-csv] [-progress]
//	sgprs-sweep -experiment overload-tail [-rate 1,1.5,2] [-slo 33.3]
//	sgprs-sweep -experiment fault-resilience [-faults '{"transient":{"prob":0.05,"policy":"retry"}}']
//	sgprs-sweep -experiment fleet-failover [-failover retry] [-admit 0.8]
//	sgprs-sweep -scenario 2 -devices 3 -placement context-fit -faults '{"device_faults":[{"device":1,"start_sec":3,"restart_sec":5}]}'
//	sgprs-sweep -scenario 1 [-arrival poisson] [-arrival-period 8] [-trace arrivals.csv] [-tasks 1..30] [-horizon 10] [-seed 1] [-jobs N] [-csv] [-progress] [-no-offline-cache] [-offline-stats]
//	sgprs-sweep -config experiment.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"

	"sgprs/internal/cluster"
	"sgprs/internal/config"
	"sgprs/internal/exp"
	"sgprs/internal/memo"
	"sgprs/internal/report"
	"sgprs/internal/rt"
	"sgprs/internal/runner"
	"sgprs/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sgprs-sweep: ")
	scenario := flag.Int("scenario", 1, "paper scenario: 1 (two contexts) or 2 (three contexts)")
	experiment := flag.String("experiment", "", "run a registered experiment by name (see -list)")
	list := flag.Bool("list", false, "list the experiment registry and exit")
	tasks := flag.String("tasks", "1..30", "task counts: \"a..b\" range or comma-separated list")
	horizon := flag.Float64("horizon", 10, "simulated seconds per point")
	seed := flag.Uint64("seed", 1, "simulation seed")
	jobs := flag.Int("jobs", 0, "parallel workers (0 = all CPUs)")
	progress := flag.Bool("progress", false, "report per-point completion on stderr")
	csvOut := flag.Bool("csv", false, "emit long-form CSV instead of tables")
	cfgPath := flag.String("config", "", "experiment JSON (overrides other flags)")
	noCache := flag.Bool("no-offline-cache", false, "disable offline-phase memoization (re-profile every run)")
	cacheStats := flag.Bool("offline-stats", false, "report offline-cache hit/miss counts on stderr")
	arrival := flag.String("arrival", "", "open-loop arrival process: periodic|poisson|bursty|diurnal, optionally kind:rate (arrivals/s per task, 0 = natural rate; mmpp and full control via -config)")
	arrivalPeriod := flag.Float64("arrival-period", 0, "cycle length in seconds for bursty/diurnal -arrival processes (0 = defaults: 5 s diurnal cycle, 1 s on + 1 s off bursty windows); bursty splits the period into equal halves")
	tracePath := flag.String("trace", "", "replay a trace file (.csv or .json) as the arrival process (overrides -arrival)")
	rates := flag.String("rate", "", "arrival-rate axis: comma-separated intensity multipliers (e.g. 1,1.25,1.5); needs -arrival, -trace, or an experiment with arrivals")
	slo := flag.Float64("slo", 0, "response-time SLO in milliseconds (0 = none); reported as SLO hit rate")
	faults := flag.String("faults", "", "fault-injection config applied to every variant: inline JSON ('{\"transient\":{\"prob\":0.05}}') or a file path")
	devices := flag.Int("devices", 0, "fleet size: run every variant on N devices behind the dispatcher (0 = leave the spec as declared; 1 = force single-device)")
	placement := flag.String("placement", "", "fleet chain-homing policy: bin-pack|context-fit|load-steal (needs a fleet: -devices > 1 or a fleet experiment)")
	failover := flag.String("failover", "", "device-crash policy: migrate|retry|shed (needs a fleet)")
	admit := flag.Float64("admit", -1, "fleet admission ceiling: shed new releases while surviving capacity is below this utilization fraction (-1 = leave the spec as declared)")
	flag.Parse()

	if *list {
		if err := writeRegistry(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	// Ctrl-C / SIGTERM cancels the sweep: no new points are dispatched,
	// in-flight points drain, and everything finished still prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := runner.Options{Jobs: *jobs, NoOfflineCache: *noCache}
	if *progress {
		opt.Progress = func(done, total int, r runner.JobResult) {
			log.Printf("[%d/%d] %s n=%d", done, total, r.Job.Variant, r.Job.Tasks)
		}
	}

	spec, err := resolveSpec(*cfgPath, *experiment, *scenario, *tasks, *horizon, *seed)
	if err != nil {
		log.Fatal(err)
	}
	if err := applyTraffic(spec, *arrival, *tracePath, *rates, *slo, *arrivalPeriod); err != nil {
		log.Fatal(err)
	}
	if err := applyFaults(spec, *faults); err != nil {
		log.Fatal(err)
	}
	if err := applyFleet(spec, *devices, *placement, *failover, *admit); err != nil {
		log.Fatal(err)
	}

	rs, runErr := exp.Run(ctx, spec, opt)
	// Per-job failures (and cancellation) are surfaced but never discard
	// finished points.
	if runErr != nil {
		log.Print(runErr)
	}
	if *cacheStats {
		log.Print(memo.Default().Stats())
	}
	if rs == nil {
		os.Exit(1)
	}

	title := spec.Name
	if spec.Description != "" {
		title += " — " + spec.Description
	}
	scen := &report.Scenario{
		Title:      title,
		TaskCounts: rs.TaskCounts,
		Series:     rs.Series(),
		Order:      rs.Order,
	}
	if *csvOut {
		err = scen.WriteCSV(os.Stdout)
	} else {
		err = scen.WriteText(os.Stdout)
	}
	if err != nil {
		log.Fatal(err)
	}
	if runErr != nil {
		os.Exit(1)
	}
}

// resolveSpec picks the experiment to run: a JSON file, a registry entry
// (with explicit -tasks/-horizon/-seed flags overriding the spec), or the
// classic scenario flags compiled into the equivalent spec.
func resolveSpec(cfgPath, experiment string, scenario int, tasks string, horizon float64, seed uint64) (*exp.Spec, error) {
	if cfgPath != "" {
		e, err := config.Load(cfgPath)
		if err != nil {
			return nil, err
		}
		return e.Spec(cfgPath)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if experiment != "" {
		spec, ok := exp.Lookup(experiment)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (registered: %s)",
				experiment, strings.Join(exp.Names(), ", "))
		}
		// Explicit flags override the registered defaults on this
		// run's clone; the registry itself is untouched.
		if set["tasks"] {
			counts, err := parseCounts(tasks)
			if err != nil {
				return nil, err
			}
			replaced := false
			for i := range spec.Axes {
				if spec.Axes[i].Kind == exp.AxisTasks {
					spec.Axes[i] = exp.Tasks(counts...)
					replaced = true
				}
			}
			if !replaced {
				spec.Axes = append(spec.Axes, exp.Tasks(counts...))
			}
		}
		if set["horizon"] {
			// A horizon axis would overwrite the per-variant field
			// each grid cell; collapse it to the override value.
			for i := range spec.Axes {
				if spec.Axes[i].Kind == exp.AxisHorizonSec {
					spec.Axes[i] = exp.HorizonSec(horizon)
				}
			}
			for i := range spec.Variants {
				spec.Variants[i].HorizonSec = horizon
			}
		}
		if set["seed"] {
			for i := range spec.Variants {
				spec.Variants[i].Seed = seed
			}
		}
		return spec, nil
	}
	counts, err := parseCounts(tasks)
	if err != nil {
		return nil, err
	}
	return exp.Scenario(scenario, counts, horizon, seed)
}

// applyTraffic overlays the open-loop traffic flags on the resolved spec:
// the arrival process (or trace) on every variant, the SLO, and the
// arrival-rate axis. Empty flags leave the spec untouched, so registered
// experiments with their own arrivals run as declared. A malformed -slo is an
// error naming the flag, not a silent "no SLO".
func applyTraffic(spec *exp.Spec, arrival, tracePath, rates string, sloMS, periodSec float64) error {
	if !(sloMS >= 0) || math.IsInf(sloMS, 1) {
		return fmt.Errorf("invalid -slo %v (want a finite number of milliseconds >= 0; 0 = none)", sloMS)
	}
	var proc workload.Arrival
	switch {
	case tracePath != "":
		data, err := workload.LoadTrace(tracePath)
		if err != nil {
			return err
		}
		proc = workload.Trace{Data: data}
	case arrival != "":
		p, err := parseArrival(arrival, periodSec)
		if err != nil {
			return err
		}
		proc = p
	}
	for i := range spec.Variants {
		if proc != nil {
			spec.Variants[i].Arrival = proc
		}
		if sloMS > 0 {
			spec.Variants[i].SLOMS = sloMS
		}
	}
	if rates != "" {
		var factors []float64
		for _, part := range strings.Split(rates, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return fmt.Errorf("invalid rate factor %q", part)
			}
			factors = append(factors, v)
		}
		replaced := false
		for i := range spec.Axes {
			if spec.Axes[i].Kind == exp.AxisRate {
				spec.Axes[i] = exp.Rate(factors...)
				replaced = true
			}
		}
		if !replaced {
			spec.Axes = append(spec.Axes, exp.Rate(factors...))
		}
	}
	return nil
}

// applyFaults overlays the -faults flag on every variant of the resolved
// spec: the argument is either inline JSON (recognised by its leading '{')
// or a path to a JSON file holding a fault.Config. Empty leaves the spec
// untouched, so registered experiments with their own fault blocks run as
// declared. Each variant gets its own deep copy — experiment axes mutate
// per-cell clones and must never reach a shared block.
func applyFaults(spec *exp.Spec, arg string) error {
	fc, err := config.ParseFaults(arg)
	if err != nil || fc == nil {
		return err
	}
	for i := range spec.Variants {
		spec.Variants[i].Faults = fc.Clone()
	}
	return nil
}

// applyFleet overlays the fleet flags on every variant of the resolved spec
// (DESIGN.md §15). Zero values leave the spec untouched, so fleet experiments
// (fleet-failover, fleet-shootout) run as declared; -devices 1 explicitly
// collapses a fleet spec back to single-device runs, clearing the fleet-only
// options so sim.Normalize accepts the result. A devices axis keeps priority
// over the flag — the axis overwrites the field per grid cell anyway. -admit
// takes a fraction in [0, 1] or the default -1 (leave as declared); anything
// else is an error naming the flag.
func applyFleet(spec *exp.Spec, devices int, placement, failover string, admit float64) error {
	if admit != -1 && !(admit >= 0 && admit <= 1) {
		return fmt.Errorf("invalid -admit %v (want a fraction in [0, 1], or -1 to leave the spec as declared)", admit)
	}
	if devices == 0 && placement == "" && failover == "" && admit == -1 {
		return nil
	}
	pl, err := cluster.ParsePlacement(placement)
	if err != nil {
		return err
	}
	fo, err := rt.ParseFailoverPolicy(failover)
	if err != nil {
		return err
	}
	for i := range spec.Variants {
		v := &spec.Variants[i]
		if devices != 0 {
			v.Devices = devices
		}
		if devices == 1 {
			v.Placement, v.Failover, v.AdmitCeiling = 0, 0, 0
			v.Faults = v.Faults.Clone()
			if v.Faults != nil {
				v.Faults.DeviceFaults = nil
			}
			continue
		}
		if placement != "" {
			v.Placement = pl
		}
		if failover != "" {
			v.Failover = fo
		}
		if admit >= 0 {
			v.AdmitCeiling = admit
		}
	}
	return nil
}

// parseArrival translates the -arrival flag ("poisson", "poisson:45",
// "bursty:60", ...) into a process. periodSec is the -arrival-period flag:
// the diurnal cycle length, or the bursty on+off window pair (split into
// equal halves); zero keeps the historical defaults (5 s diurnal cycle,
// 1 s + 1 s bursty windows). Richer shapes (MMPP, custom windows) go
// through a -config file's arrival block.
func parseArrival(s string, periodSec float64) (workload.Arrival, error) {
	kind, rest, _ := strings.Cut(s, ":")
	rate := 0.0
	if rest != "" {
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, fmt.Errorf("invalid arrival rate %q", rest)
		}
		rate = v
	}
	if !(periodSec >= 0) || math.IsInf(periodSec, 1) {
		return nil, fmt.Errorf("invalid -arrival-period %v (want a finite number of seconds >= 0; 0 = defaults)", periodSec)
	}
	k := strings.TrimSpace(kind)
	if periodSec > 0 && k != "bursty" && k != "diurnal" {
		return nil, fmt.Errorf("-arrival-period applies only to bursty and diurnal arrivals, not %q", k)
	}
	switch k {
	case "periodic":
		return workload.Periodic{Rate: rate}, nil
	case "poisson":
		return workload.Poisson{Rate: rate}, nil
	case "bursty":
		on := 1.0
		if periodSec > 0 {
			on = periodSec / 2
		}
		return workload.Bursty{OnSec: on, OffSec: on, Rate: rate}, nil
	case "diurnal":
		period := 5.0
		if periodSec > 0 {
			period = periodSec
		}
		return workload.Diurnal{PeriodSec: period, MaxRate: rate}, nil
	default:
		return nil, fmt.Errorf("unknown arrival %q (want periodic, poisson, bursty, or diurnal; mmpp and traces via -config/-trace)", kind)
	}
}

// writeRegistry renders the experiment registry as an aligned table,
// including each experiment's axes with their value ranges.
func writeRegistry(w *os.File) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
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

func parseCounts(s string) ([]int, error) {
	if a, b, ok := strings.Cut(s, ".."); ok {
		lo, err1 := strconv.Atoi(strings.TrimSpace(a))
		hi, err2 := strconv.Atoi(strings.TrimSpace(b))
		if err1 != nil || err2 != nil || lo < 1 || hi < lo {
			return nil, fmt.Errorf("invalid range %q", s)
		}
		var out []int
		for n := lo; n <= hi; n++ {
			out = append(out, n)
		}
		return out, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid task count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
