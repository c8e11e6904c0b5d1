package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"sgprs/internal/config"
	"sgprs/internal/des"
	"sgprs/internal/sim"
	"sgprs/internal/trace"
)

// runCmd executes one simulation and prints its metrics: total FPS, deadline
// misses, response times, device utilisation and energy. The header shows
// the values the run used, defaults filled in. With -o it also records
// every kernel span and writes the timeline as Chrome trace JSON (open in
// chrome://tracing or https://ui.perfetto.dev), or as CSV for a .csv name.
//
//	sgprs run -sched sgprs -contexts 51,51 -n 24 [-horizon 10] [-seed 1]
//	sgprs run -n 12 -horizon 0.5 -warmup 0.05 -o trace.json
func runCmd(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("run", stderr)
	cfg := &sim.RunConfig{}
	sched := fs.String("sched", "sgprs", `scheduler: "sgprs" or "naive"`)
	contexts := fs.String("contexts", "34,34", "comma-separated per-context SM allocations")
	fs.IntVar(&cfg.NumTasks, "n", 8, "number of identical periodic ResNet18 tasks")
	fs.Float64Var(&cfg.FPS, "fps", 30, "per-task frame rate")
	fs.IntVar(&cfg.Stages, "stages", 6, "stages per task")
	fs.Float64Var(&cfg.HorizonSec, "horizon", 10, "simulated seconds (keep short with -o: traces grow fast)")
	fs.Float64Var(&cfg.WarmUpSec, "warmup", 1, "warm-up seconds excluded from metrics")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "simulation seed")
	fs.BoolVar(&cfg.Stagger, "stagger", false, "stagger task release offsets across the period")
	out := fs.String("o", "", "write the kernel trace to this file (.json for Chrome trace, .csv for CSV)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	kind, err := sim.ParseKind(*sched)
	if err != nil {
		return err
	}
	if cfg.ContextSMs, err = config.ParseInts(*contexts, "SM allocation", 1, math.MaxInt); err != nil {
		return err
	}
	cfg.Kind, cfg.Name = kind, *sched
	var rec *trace.Recorder
	if *out != "" {
		if err := checkHorizon(cfg.HorizonSec); err != nil {
			return err
		}
		rec = trace.NewRecorder()
		cfg.Observer = rec
	}
	if err := cfg.Normalize(); err != nil {
		return err
	}
	res, err := sim.Run(*cfg)
	if err != nil {
		return err
	}

	s := res.Summary
	fmt.Fprintf(stdout, "scheduler        %s\n", res.Name)
	fmt.Fprintf(stdout, "contexts         %v SMs\n", cfg.ContextSMs)
	fmt.Fprintf(stdout, "tasks            %d x ResNet18 @ %.0f fps, %d stages\n", res.Tasks, cfg.FPS, cfg.Stages)
	fmt.Fprintf(stdout, "window           [%ss, %ss)\n", seconds(cfg.WarmUpSec), seconds(cfg.HorizonSec))
	fmt.Fprintf(stdout, "total FPS        %.1f\n", s.TotalFPS)
	fmt.Fprintf(stdout, "deadline misses  %d / %d (DMR %.4f)\n", s.Missed, s.Released, s.DMR)
	fmt.Fprintf(stdout, "completed        %d\n", s.Completed)
	fmt.Fprintf(stdout, "response (ms)    mean %.2f  p50 %.2f  p99 %.2f  max %.2f\n",
		s.RespMeanMS, s.RespP50MS, s.RespP99MS, s.RespMaxMS)
	fmt.Fprintf(stdout, "device util      %.1f%%\n", res.DeviceUtilization*100)
	fmt.Fprintf(stdout, "energy           %.1f J (avg %.1f W, %.2f fps/W)\n",
		res.EnergyJoules, res.AvgPowerW, res.FPSPerWatt)
	if rec == nil {
		return nil
	}
	if err := writeTrace(rec, *out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d kernel spans to %s\n", len(rec.Spans()), *out)
	return nil
}

// checkHorizon rejects a -horizon a trace cannot cover: it must be
// positive, finite and within the simulated clock. Zero is an error rather
// than the run configuration's 10 s default, which would trace far more
// than a trace is meant to.
func checkHorizon(sec float64) error {
	if !(sec > 0) || math.IsInf(sec, 0) {
		return fmt.Errorf("-horizon %v must be positive and finite", sec)
	}
	if des.FromSeconds(sec) == des.Never {
		return fmt.Errorf("-horizon %vs exceeds the simulated clock's range", sec)
	}
	return nil
}

func writeTrace(rec *trace.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".csv") {
		err = rec.WriteCSV(f)
	} else {
		err = rec.WriteChromeTrace(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// seconds formats v with as many decimals as it needs, and at least one, so
// a 0.03 s warm-up does not print as 0.0 s.
func seconds(v float64) string {
	s := strconv.FormatFloat(v, 'f', -1, 64)
	if !strings.Contains(s, ".") {
		s += ".0"
	}
	return s
}
