// Command sgprs-calibrate documents and re-derives the simulator's
// calibration: it searches the device's aggregate gain cap (and reports the
// implied reference latency) so that the simulated SGPRS saturation
// throughput and pivot point land on chosen targets — by default the paper's
// 741 fps and pivot 24.
//
// This is the methodology artifact behind DESIGN.md §2: absolute numbers in
// this repository are calibrated, and this tool shows exactly how.
//
// The calibration grid (gain cap × task count) is embarrassingly parallel
// and fans out across a worker pool (-jobs, default all CPUs) as one flat
// job list; a failed grid point is reported with its coordinates and only
// its own cap row is dropped.
//
// Usage:
//
//	sgprs-calibrate [-target-fps 741] [-target-pivot 24] [-scenario 2] [-jobs N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"syscall"

	"sgprs/internal/exp"
	"sgprs/internal/gpu"
	"sgprs/internal/metrics"
	"sgprs/internal/runner"
	"sgprs/internal/sim"
	"sgprs/internal/speedup"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sgprs-calibrate: ")
	targetFPS := flag.Float64("target-fps", 741, "saturation FPS to calibrate toward")
	targetPivot := flag.Int("target-pivot", 24, "pivot point to calibrate toward")
	scenario := flag.Int("scenario", 2, "paper scenario to calibrate on")
	osLevel := flag.Float64("os", 1.5, "over-subscription level of the calibration variant")
	jobs := flag.Int("jobs", 0, "parallel workers (0 = all CPUs)")
	noCache := flag.Bool("no-offline-cache", false, "disable offline-phase memoization")
	flag.Parse()

	counts, err := calibrationCounts(*targetPivot)
	if err != nil {
		log.Fatal(err)
	}
	if err := checkTargets(*targetFPS, *osLevel); err != nil {
		log.Fatal(err)
	}
	np, err := sim.ScenarioContexts(*scenario)
	if err != nil {
		log.Fatal(err)
	}
	pool := sim.ContextPool(np, *osLevel, speedup.DeviceSMs)

	fmt.Printf("calibrating AggregateGainCap for sat≈%.0f fps, pivot≈%d (scenario %d, %.1fx, pool %v)\n\n",
		*targetFPS, *targetPivot, *scenario, *osLevel, pool)
	fmt.Printf("%8s %10s %8s %8s\n", "cap", "sat fps", "pivot", "score")

	type point struct {
		cap   float64
		fps   float64
		pivot int
		score float64
	}
	best := point{score: 1e18}

	// One flat grid: every (cap, count) pair is an independent run.
	var caps []float64
	var bases []sim.RunConfig
	for cap := 20.0; cap <= 26.5; cap += 0.5 {
		gcfg := gpu.DefaultConfig()
		gcfg.AggregateGainCap = cap
		caps = append(caps, cap)
		bases = append(bases, sim.RunConfig{
			Kind:       sim.KindSGPRS,
			Name:       fmt.Sprintf("cap=%.1f", cap),
			ContextSMs: pool,
			NumTasks:   1,
			HorizonSec: 4,
			GPU:        gcfg,
		})
	}
	// The offline cache collapses the whole grid to one WCET profile: the
	// gain cap under calibration cannot affect an isolated single-kernel
	// measurement, so it is excluded from the profile key and every cap
	// row shares the same profiled task shape.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rs, gridErr := exp.Run(ctx, exp.Grid(bases, counts), runner.Options{Jobs: *jobs, NoOfflineCache: *noCache})
	if rs == nil {
		log.Fatal(gridErr)
	}
	if gridErr != nil {
		log.Print(gridErr)
	}
	grid := rs.Series()
	for i, cap := range caps {
		series := grid[rs.Order[i]]
		if len(series) != len(counts) { // some points failed
			fmt.Printf("%8.1f %10s %8s %8s\n", cap, "-", "-", "-")
			continue
		}
		fps := metrics.SaturationFPS(series)
		pivot := metrics.PivotPoint(series)
		// Relative FPS error plus one "FPS-percent" per pivot step off.
		score := abs(fps-*targetFPS) / *targetFPS * 100
		score += abs(float64(pivot - *targetPivot))
		fmt.Printf("%8.1f %10.1f %8d %8.2f\n", cap, fps, pivot, score)
		if score < best.score {
			best = point{cap: cap, fps: fps, pivot: pivot, score: score}
		}
	}

	if best.score == 1e18 {
		log.Print("no cap row completed; cannot recommend a calibration")
		os.Exit(1)
	}
	fmt.Printf("\nbest cap: %.1f (sat %.1f fps, pivot %d)\n", best.cap, best.fps, best.pivot)
	fmt.Printf("shipping default: %.1f (reference latency %.2f ms)\n",
		gpu.DefaultConfig().AggregateGainCap, sim.ReferenceLatencyMS)
	fmt.Println("\nNote: the reference latency pins absolute time (dnn.Calibrate); the cap")
	fmt.Println("pins aggregate throughput. Together they fix saturation FPS ≈ 1000·G/W,")
	fmt.Println("with W the calibrated per-inference single-SM work (~32.6 ssm·ms).")
	// Failed grid points excluded caps from the search: the recommendation
	// above is incomplete, so the exit status must say so.
	if gridErr != nil {
		os.Exit(1)
	}
}

// calibrationCounts is the task axis around the target pivot: two below to
// four above, dropping counts below 1 (a run needs a task, and one invalid
// count would fail the whole spec). The offsets are distinct, so no count
// repeats.
func calibrationCounts(targetPivot int) ([]int, error) {
	if targetPivot < 1 {
		return nil, fmt.Errorf("-target-pivot %d must be at least 1", targetPivot)
	}
	var out []int
	for _, d := range []int{-2, -1, 0, 1, 2, 4} {
		if n := targetPivot + d; n >= 1 {
			out = append(out, n)
		}
	}
	return out, nil
}

// checkTargets rejects a saturation target or over-subscription level no
// calibration can use: both must be positive and finite.
func checkTargets(targetFPS, osLevel float64) error {
	if !(targetFPS > 0) || math.IsInf(targetFPS, 0) {
		return fmt.Errorf("-target-fps %v must be positive and finite", targetFPS)
	}
	if !(osLevel > 0) || math.IsInf(osLevel, 0) {
		return fmt.Errorf("-os %v must be positive and finite", osLevel)
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
