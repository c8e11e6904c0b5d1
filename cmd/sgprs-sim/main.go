// Command sgprs-sim executes a single simulation run and prints its metrics:
// total FPS, deadline miss rate, response-time statistics, and device
// utilisation.
//
// Usage:
//
//	sgprs-sim -sched sgprs -contexts 51,51 -n 24 [-horizon 10] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"

	"sgprs/internal/config"
	"sgprs/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sgprs-sim: ")
	schedName := flag.String("sched", "sgprs", `scheduler: "sgprs" or "naive"`)
	contexts := flag.String("contexts", "34,34", "comma-separated per-context SM allocations")
	n := flag.Int("n", 8, "number of identical periodic ResNet18 tasks")
	fps := flag.Float64("fps", 30, "per-task frame rate")
	stages := flag.Int("stages", 6, "stages per task")
	horizon := flag.Float64("horizon", 10, "simulated seconds")
	warmup := flag.Float64("warmup", 1, "warm-up seconds excluded from metrics")
	seed := flag.Uint64("seed", 1, "simulation seed")
	stagger := flag.Bool("stagger", false, "stagger task release offsets across the period")
	flag.Parse()

	kind := sim.KindSGPRS
	switch *schedName {
	case "sgprs":
	case "naive":
		kind = sim.KindNaive
	default:
		log.Fatalf("unknown scheduler %q", *schedName)
	}
	pool, err := config.ParsePool(*contexts)
	if err != nil {
		log.Fatal(err)
	}

	res, err := sim.Run(sim.RunConfig{
		Kind:       kind,
		Name:       *schedName,
		ContextSMs: pool,
		NumTasks:   *n,
		FPS:        *fps,
		Stages:     *stages,
		Stagger:    *stagger,
		HorizonSec: *horizon,
		WarmUpSec:  *warmup,
		Seed:       *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	s := res.Summary
	fmt.Printf("scheduler        %s\n", res.Name)
	fmt.Printf("contexts         %v SMs\n", pool)
	fmt.Printf("tasks            %d x ResNet18 @ %.0f fps, %d stages\n", res.Tasks, *fps, *stages)
	fmt.Printf("window           [%.1fs, %.1fs)\n", *warmup, *horizon)
	fmt.Printf("total FPS        %.1f\n", s.TotalFPS)
	fmt.Printf("deadline misses  %d / %d (DMR %.4f)\n", s.Missed, s.Released, s.DMR)
	fmt.Printf("completed        %d\n", s.Completed)
	fmt.Printf("response (ms)    mean %.2f  p50 %.2f  p99 %.2f  max %.2f\n",
		s.RespMeanMS, s.RespP50MS, s.RespP99MS, s.RespMaxMS)
	fmt.Printf("device util      %.1f%%\n", res.DeviceUtilization*100)
	fmt.Printf("energy           %.1f J (avg %.1f W, %.2f fps/W)\n",
		res.EnergyJoules, res.AvgPowerW, res.FPSPerWatt)
}
