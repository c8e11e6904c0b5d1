package main

import (
	"fmt"
	"io"
	"math"
	"slices"

	"sgprs/internal/analysis"
	"sgprs/internal/config"
	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/exp"
	"sgprs/internal/gpu"
	"sgprs/internal/memo"
	"sgprs/internal/profile"
	"sgprs/internal/rt"
	"sgprs/internal/sim"
)

// analyzeCmd runs the offline schedulability analysis for an identical-task
// configuration and, with -verify, compares its predictions (pivot point,
// saturation FPS) against a short simulation sweep. The sweep shares the
// offline cache with the direct profile, and reuses one run session per
// worker. -experiment takes the workload shape (frame rate, stages,
// context pool, peak task count) from a registered experiment's first
// SGPRS variant instead of the flags.
//
//	sgprs analyze [-n 24] [-fps 30] [-stages 6] [-contexts 34,34] [-verify] [-jobs N]
//	sgprs analyze -experiment oversubscription [-verify]
func analyzeCmd(args []string, stdout, stderr io.Writer) error {
	fs := newFlags("analyze", stderr)
	n := fs.Int("n", 24, "number of identical ResNet18 tasks")
	fps := fs.Float64("fps", 30, "per-task frame rate")
	stages := fs.Int("stages", 6, "stages per task")
	contexts := fs.String("contexts", "34,34", "context pool (for the verification run)")
	experiment := fs.String("experiment", "", "take the workload shape from a registered experiment (see `sgprs list`)")
	verify := fs.Bool("verify", false, "run a simulation sweep around the predicted pivot")
	faults := fs.String("faults", "", "fault-injection config for the verification sweep: inline JSON or a file path (the analysis itself stays fault-free)")
	pool := addPoolFlags(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	contextSMs, err := config.ParseInts(*contexts, "SM allocation", 1, math.MaxInt)
	if err != nil {
		return err
	}
	if *experiment != "" {
		if contextSMs, err = fromExperiment(stdout, *experiment, n, fps, stages); err != nil {
			return err
		}
	}
	period, err := analysisPeriod(*n, *fps)
	if err != nil {
		return err
	}

	// sim.DefaultModel (not a fresh speedup.DefaultModel) so the direct
	// profile below and the verification sweep share cache entries: the
	// offline cache keys on model identity.
	model := sim.DefaultModel()
	dev := gpu.DefaultConfig()
	g := sim.ReferenceGraph(model)
	parts, err := dnn.Partition(g, *stages)
	if err != nil {
		return err
	}
	task, err := rt.NewTask(0, "resnet18", g, parts, period, period, 0)
	if err != nil {
		return err
	}
	prof := profile.New(model, dev)
	if err := memo.Default().ProfileTasks(prof, []*rt.Task{task}, slices.Min(contextSMs)); err != nil {
		return err
	}
	load, err := analysis.FromTask(task)
	if err != nil {
		return err
	}
	loads := make([]analysis.TaskLoad, *n)
	for i := range loads {
		loads[i] = load
	}
	fmt.Fprintln(stdout, analysis.Analyze(loads, dev))

	pivot := analysis.PredictPivot(load, dev)
	fmt.Fprintf(stdout, "analytic pivot       %d tasks\n", pivot)
	fmt.Fprintf(stdout, "analytic saturation  %.0f fps\n", analysis.PredictSaturationFPS(load, dev))
	fmt.Fprintf(stdout, "response @pivot      %v (deadline %v)\n",
		analysis.ResponseEstimate(load, dev, pivot), task.Deadline)

	if !*verify {
		if *faults != "" {
			return fmt.Errorf("-faults applies to the verification sweep; add -verify")
		}
		return nil
	}
	fc, err := config.ParseFaults(*faults)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\nverification sweep (4 s simulated per point):")
	ctx, stop, opt := pool.start()
	defer stop()
	rs, runErr := exp.Run(ctx, exp.Series(sim.RunConfig{
		Kind:       sim.KindSGPRS,
		Name:       "sgprs",
		ContextSMs: contextSMs,
		NumTasks:   1,
		FPS:        *fps,
		Stages:     *stages,
		HorizonSec: 4,
		Faults:     fc,
	}, verifyCounts(pivot)), opt)
	if rs == nil {
		return runErr
	}
	// A failed point is reported with its coordinates; finished points
	// still print.
	for _, p := range rs.Series()["sgprs"] {
		fmt.Fprintf(stdout, "  %2d tasks: %6.1f fps, %d misses",
			p.Tasks, p.Summary.TotalFPS, p.Summary.Missed)
		if ff := p.FastForward; ff.CyclesSkipped > 0 {
			fmt.Fprintf(stdout, " (fast-forward: %d cycles detected, %d skipped)",
				ff.CyclesDetected, ff.CyclesSkipped)
		}
		if f := p.Summary.Faults; f.Overruns > 0 || f.TransientFaults > 0 {
			fmt.Fprintf(stdout, " (faults: %d overruns, %d transients, %d recovered, %d skipped, %d killed)",
				f.Overruns, f.TransientFaults, f.Recoveries, f.SkippedJobs, f.KilledChains)
		}
		fmt.Fprintln(stdout)
	}
	return runErr
}

// fromExperiment resolves the analysis inputs from a registered
// experiment: the first SGPRS variant supplies frame rate, stage count,
// and context pool, and the task axis's largest value becomes the analyzed
// task count — so the analysis answers "is this experiment's heaviest
// point schedulable?".
func fromExperiment(stdout io.Writer, name string, n *int, fps *float64, stages *int) ([]int, error) {
	spec, err := lookupExperiment(name)
	if err != nil {
		return nil, err
	}
	for _, v := range spec.Variants {
		if v.Kind != sim.KindSGPRS || len(v.ContextSMs) == 0 {
			continue
		}
		if v.FPS > 0 {
			*fps = v.FPS
		}
		if v.Stages > 0 {
			*stages = v.Stages
		}
		*n = v.NumTasks
		for _, a := range spec.Axes {
			if a.Kind == exp.AxisTasks {
				for _, c := range a.Values {
					*n = max(*n, int(c))
				}
			}
		}
		fmt.Fprintf(stdout, "experiment %q: analyzing variant %q at its peak load (%d tasks)\n\n", name, v.Name, *n)
		return append([]int(nil), v.ContextSMs...), nil
	}
	return nil, fmt.Errorf("experiment %q has no SGPRS variant with a context pool", name)
}

// analysisPeriod validates -n and -fps (after -experiment has filled them)
// and returns the release period: at least one task, and a frame rate with
// a usable period.
func analysisPeriod(n int, fps float64) (des.Time, error) {
	if n < 1 {
		return 0, fmt.Errorf("-n %d must be at least 1", n)
	}
	return fpsPeriod(fps)
}

// verifyCounts is the verification sweep's task axis: the predicted pivot
// and two tasks either side, dropping counts below 1 (a run needs a task,
// and one invalid count would fail the whole spec). The offsets are
// distinct, so no count repeats.
func verifyCounts(pivot int) []int {
	var out []int
	for _, n := range []int{pivot - 2, pivot, pivot + 2} {
		if n >= 1 {
			out = append(out, n)
		}
	}
	return out
}
