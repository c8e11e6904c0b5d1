// Pivot: find the pivot point — the largest task count a scheduler handles
// without a single deadline miss (paper Section V) — for both the naive
// baseline and SGPRS in Scenario 1, by sweeping the task count: one
// experiment grid of both variants over the same task counts.
//
//	go run ./examples/pivot
package main

import (
	"context"
	"fmt"
	"log"

	"sgprs/internal/exp"
	"sgprs/internal/metrics"
	"sgprs/internal/runner"
	"sgprs/internal/sim"
)

func main() {
	log.SetFlags(0)
	counts := []int{4, 8, 12, 14, 16, 18, 20, 22, 24, 26, 28}
	configs := []sim.RunConfig{
		{Kind: sim.KindNaive, Name: "naive", ContextSMs: sim.ContextPool(2, 1.0, 68), HorizonSec: 5},
		{Kind: sim.KindSGPRS, Name: "sgprs-2.0x", ContextSMs: sim.ContextPool(2, 2.0, 68), HorizonSec: 5},
	}
	fmt.Println("pivot search, Scenario 1 (two contexts), 30 fps ResNet18 tasks")
	rs, err := exp.Run(context.Background(), exp.Grid(configs, counts), runner.Options{})
	if err != nil {
		log.Fatal(err)
	}
	all := rs.Series()
	for _, name := range rs.Order {
		series := all[name]
		pivot := metrics.PivotPoint(series)
		fmt.Printf("\n%s:\n", name)
		for _, p := range series {
			marker := ""
			if p.Tasks == pivot {
				marker = "  <- pivot point"
			}
			fmt.Printf("  %2d tasks: %6.1f fps, DMR %.3f%s\n",
				p.Tasks, p.Summary.TotalFPS, p.Summary.DMR, marker)
		}
		fmt.Printf("  pivot: %d tasks, saturation %.0f fps\n",
			pivot, metrics.SaturationFPS(series))
	}
}
