// Registry: enumerate the declarative experiment registry, then run a
// smoke-scale clone of the built-in jitter ladder through RunExperiment —
// with a cancellable context and per-job streaming results, the way a
// long campaign would be driven.
//
// Lookup returns an independent clone, so shrinking the axes here never
// affects what `sgprs sweep -experiment jitter-ladder` runs. Per-job progress
// goes to stderr in completion order; stdout is deterministic.
//
//	go run ./examples/registry
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"

	"sgprs"
)

func main() {
	log.SetFlags(0)
	fmt.Println("registered experiments:")
	for _, e := range sgprs.Experiments() {
		fmt.Printf("  %-18s %s\n", e.Name, e.Description)
	}

	spec, ok := sgprs.LookupExperiment("jitter-ladder")
	if !ok {
		log.Fatal("jitter-ladder is not registered")
	}
	// Scale the clone down to smoke size: two jitter rungs, three loads,
	// a 3-second horizon.
	spec.Axes = []sgprs.ExperimentAxis{
		sgprs.JitterAxis(0, 10),
		sgprs.TasksAxis(8, 16, 24),
	}
	for i := range spec.Variants {
		spec.Variants[i].HorizonSec = 3
	}

	// Ctrl-C cancels: dispatched runs drain, the rest are attributed to
	// the context, and every finished point below still prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Println("\nrunning a smoke-scale jitter-ladder clone:")
	rs, err := sgprs.RunExperiment(ctx, spec, sgprs.SweepOptions{
		Progress: func(done, total int, r sgprs.SweepJobResult) {
			fmt.Fprintf(os.Stderr, "  [%d/%d] %-14s n=%-2d", done, total, r.Job.Variant, r.Job.Tasks)
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "  %v\n", r.Err)
			} else {
				fmt.Fprintf(os.Stderr, "  %6.1f fps  dmr %.4f\n", r.Result.Summary.TotalFPS, r.Result.Summary.DMR)
			}
		},
	})
	if rs == nil {
		log.Fatal(err)
	}
	if err != nil {
		log.Print(err) // partial results below are still valid
	}

	fmt.Println("\npivot by jitter bound:")
	series := rs.Series()
	for _, label := range rs.Order {
		fmt.Printf("  %-14s pivot %2d tasks, saturation %5.0f fps\n",
			label, sgprs.PivotPoint(series[label]), sgprs.SaturationFPS(series[label]))
	}
}
