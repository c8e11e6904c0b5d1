// Parallelsweep: regenerate a paper scenario as an experiment on the
// parallel runner, with a progress callback, and double-check that the
// result is bit-identical to a single-worker run (it always is — worker
// count only changes wall-clock; see DESIGN.md §5-§6). Progress goes to
// stderr in completion order; stdout is deterministic.
//
//	go run ./examples/parallelsweep
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"reflect"

	"sgprs"
)

func main() {
	log.SetFlags(0)
	spec, err := sgprs.ScenarioExperiment(1, []int{4, 8, 12, 16}, 3, 1)
	if err != nil {
		log.Fatal(err)
	}

	par, err := sgprs.RunExperiment(context.Background(), spec, sgprs.SweepOptions{
		Progress: func(done, total int, r sgprs.SweepJobResult) {
			fmt.Fprintf(os.Stderr, "  [%2d/%d] %-10s n=%d\n", done, total, r.Job.Variant, r.Job.Tasks)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	one, err := sgprs.RunExperiment(context.Background(), spec, sgprs.SweepOptions{Jobs: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bit-identical to 1 worker: %v\n\n", reflect.DeepEqual(par.Results, one.Results))

	series := par.Series()
	for _, name := range par.Order {
		fmt.Printf("%-10s  pivot %2d tasks, saturation %5.0f fps\n",
			name, sgprs.PivotPoint(series[name]), sgprs.SaturationFPS(series[name]))
	}
}
