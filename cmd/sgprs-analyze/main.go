// Command sgprs-analyze runs the offline schedulability analysis for an
// identical-task configuration and compares the analytic predictions (pivot
// point, saturation FPS) against a short simulation. The verification sweep
// shares the offline cache with the direct profile below and reuses one run
// session per worker (streaming metrics, recycled jobs).
//
// Instead of hand-typed flags, -experiment <name> pulls the workload shape
// (frame rate, stages, context pool, peak task count) from a registered
// experiment's first SGPRS variant; -list enumerates the registry.
//
// Usage:
//
//	sgprs-analyze [-n 24] [-fps 30] [-stages 6] [-contexts 34,34] [-verify] [-jobs N]
//	sgprs-analyze -experiment oversubscription [-verify]
//	sgprs-analyze -list
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"sgprs/internal/analysis"
	"sgprs/internal/config"
	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/exp"
	"sgprs/internal/gpu"
	"sgprs/internal/memo"
	"sgprs/internal/profile"
	"sgprs/internal/rt"
	"sgprs/internal/runner"
	"sgprs/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sgprs-analyze: ")
	n := flag.Int("n", 24, "number of identical ResNet18 tasks")
	fps := flag.Float64("fps", 30, "per-task frame rate")
	stages := flag.Int("stages", 6, "stages per task")
	contexts := flag.String("contexts", "34,34", "context pool (for the verification run)")
	experiment := flag.String("experiment", "", "take the workload shape from a registered experiment (see -list)")
	list := flag.Bool("list", false, "list the experiment registry and exit")
	verify := flag.Bool("verify", false, "run a simulation sweep around the predicted pivot")
	jobs := flag.Int("jobs", 0, "parallel workers for the verification sweep (0 = all CPUs)")
	noCache := flag.Bool("no-offline-cache", false, "disable offline-phase memoization")
	faults := flag.String("faults", "", "fault-injection config for the verification sweep: inline JSON or a file path (the analysis itself stays fault-free)")
	flag.Parse()

	if *list {
		for _, s := range exp.List() {
			axes := make([]string, len(s.Axes))
			for i, a := range s.Axes {
				axes[i] = a.String()
			}
			fmt.Printf("%-18s %-34s %s\n", s.Name, exp.Summarize(s), s.Description)
			if len(axes) > 0 {
				fmt.Printf("%-18s   axes: %s\n", "", strings.Join(axes, " "))
			}
		}
		return
	}
	pool, err := config.ParsePool(*contexts)
	if err != nil {
		log.Fatal(err)
	}
	if *experiment != "" {
		if pool, err = fromExperiment(*experiment, n, fps, stages); err != nil {
			log.Fatal(err)
		}
	}

	period, err := checkFlags(*n, *fps)
	if err != nil {
		log.Fatal(err)
	}

	// sim.DefaultModel (not a fresh speedup.DefaultModel) so the direct
	// profile below and the verification sweep share cache entries: the
	// offline cache keys on model identity.
	model := sim.DefaultModel()
	dev := gpu.DefaultConfig()
	g := sim.ReferenceGraph(model)
	parts, err := dnn.Partition(g, *stages)
	if err != nil {
		log.Fatal(err)
	}
	task, err := rt.NewTask(0, "resnet18", g, parts, period, period, 0)
	if err != nil {
		log.Fatal(err)
	}
	// The analytic profile shares the offline cache with the verification
	// sweep below: the task shape is measured once for both.
	prof := profile.New(model, dev)
	if *noCache {
		if err := prof.ProfileTask(task, minOf(pool)); err != nil {
			log.Fatal(err)
		}
	} else if err := memo.Default().ProfileTasks(prof, []*rt.Task{task}, minOf(pool)); err != nil {
		log.Fatal(err)
	}
	load, err := analysis.FromTask(task)
	if err != nil {
		log.Fatal(err)
	}

	loads := make([]analysis.TaskLoad, *n)
	for i := range loads {
		loads[i] = load
	}
	rep := analysis.Analyze(loads, dev)
	fmt.Println(rep)

	pivot := analysis.PredictPivot(load, dev)
	satFPS := analysis.PredictSaturationFPS(load, dev)
	fmt.Printf("analytic pivot       %d tasks\n", pivot)
	fmt.Printf("analytic saturation  %.0f fps\n", satFPS)
	fmt.Printf("response @pivot      %v (deadline %v)\n",
		analysis.ResponseEstimate(load, dev, pivot), task.Deadline)

	if !*verify {
		if *faults != "" {
			log.Fatal("-faults applies to the verification sweep; add -verify")
		}
		return
	}
	fc, err := config.ParseFaults(*faults)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nverification sweep (4 s simulated per point):")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rs, runErr := exp.Run(ctx, exp.Series(sim.RunConfig{
		Kind:       sim.KindSGPRS,
		Name:       "sgprs",
		ContextSMs: pool,
		NumTasks:   1,
		FPS:        *fps,
		Stages:     *stages,
		HorizonSec: 4,
		Faults:     fc,
	}, verifyCounts(pivot)), runner.Options{Jobs: *jobs, NoOfflineCache: *noCache})
	if rs == nil {
		log.Fatal(runErr)
	}
	// A failed point is reported with its coordinates; finished points
	// still print.
	if runErr != nil {
		log.Print(runErr)
	}
	for _, p := range rs.Series()["sgprs"] {
		fmt.Printf("  %2d tasks: %6.1f fps, %d misses",
			p.Tasks, p.Summary.TotalFPS, p.Summary.Missed)
		if ff := p.FastForward; ff.CyclesSkipped > 0 {
			fmt.Printf(" (fast-forward: %d cycles detected, %d skipped)",
				ff.CyclesDetected, ff.CyclesSkipped)
		}
		if f := p.Summary.Faults; f.Overruns > 0 || f.TransientFaults > 0 {
			fmt.Printf(" (faults: %d overruns, %d transients, %d recovered, %d skipped, %d killed)",
				f.Overruns, f.TransientFaults, f.Recoveries, f.SkippedJobs, f.KilledChains)
		}
		fmt.Println()
	}
	if runErr != nil {
		os.Exit(1)
	}
}

// fromExperiment resolves the analysis inputs from a registered
// experiment: the first SGPRS variant supplies frame rate, stage count,
// and context pool, and the task axis's largest value becomes the analyzed
// task count — so the analysis answers "is this experiment's heaviest
// point schedulable?".
func fromExperiment(name string, n *int, fps *float64, stages *int) ([]int, error) {
	spec, ok := exp.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q (registered: %s)", name, strings.Join(exp.Names(), ", "))
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
					if int(c) > *n {
						*n = int(c)
					}
				}
			}
		}
		fmt.Printf("experiment %q: analyzing variant %q at its peak load (%d tasks)\n\n", name, v.Name, *n)
		return append([]int(nil), v.ContextSMs...), nil
	}
	return nil, fmt.Errorf("experiment %q has no SGPRS variant with a context pool", name)
}

// checkFlags validates -n and -fps (after -experiment has filled them) and
// returns the release period: at least one task, and a frame rate whose
// period is positive, finite and inside the simulated clock's range.
func checkFlags(n int, fps float64) (des.Time, error) {
	if n < 1 {
		return 0, fmt.Errorf("-n %d must be at least 1", n)
	}
	if !(fps > 0) || math.IsInf(fps, 0) {
		return 0, fmt.Errorf("-fps %v must be positive and finite", fps)
	}
	period := des.FromSeconds(1 / fps)
	if period == 0 || period == des.Never {
		return 0, fmt.Errorf("-fps %v gives a period of %vs, outside the simulated clock's range", fps, 1/fps)
	}
	return period, nil
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

func minOf(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
