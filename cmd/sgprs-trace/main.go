// Command sgprs-trace runs a short simulation with kernel tracing enabled
// and writes the execution timeline as Chrome trace JSON (open in
// chrome://tracing or https://ui.perfetto.dev) or CSV.
//
// Usage:
//
//	sgprs-trace -sched sgprs -contexts 51,51 -n 12 -horizon 0.5 -o trace.json
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"sgprs/internal/config"
	"sgprs/internal/des"
	"sgprs/internal/sim"
	"sgprs/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sgprs-trace: ")
	schedName := flag.String("sched", "sgprs", `scheduler: "sgprs" or "naive"`)
	contexts := flag.String("contexts", "34,34", "comma-separated per-context SM allocations")
	n := flag.Int("n", 8, "number of tasks")
	horizon := flag.Float64("horizon", 0.5, "simulated seconds (keep short: traces grow fast)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	out := flag.String("o", "trace.json", "output file (.json for Chrome trace, .csv for CSV)")
	flag.Parse()

	if err := checkHorizon(*horizon); err != nil {
		log.Fatal(err)
	}
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

	rec := trace.NewRecorder()
	res, err := sim.Run(sim.RunConfig{
		Kind:       kind,
		Name:       *schedName,
		ContextSMs: pool,
		NumTasks:   *n,
		HorizonSec: *horizon,
		WarmUpSec:  *horizon / 10,
		Seed:       *seed,
		Observer:   rec,
	})
	if err != nil {
		log.Fatal(err)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if strings.HasSuffix(*out, ".csv") {
		err = rec.WriteCSV(f)
	} else {
		err = rec.WriteChromeTrace(f)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d kernel spans to %s (run: %s)\n", len(rec.Spans()), *out, res.Summary)
}

// checkHorizon rejects a -horizon the trace cannot cover: it must be
// positive, finite and within the simulated clock. Zero is an error rather
// than the run configuration's 10 s default, which would trace far more
// than this tool means to.
func checkHorizon(sec float64) error {
	if !(sec > 0) || math.IsInf(sec, 0) {
		return fmt.Errorf("-horizon %v must be positive and finite", sec)
	}
	if des.FromSeconds(sec) == des.Never {
		return fmt.Errorf("-horizon %vs exceeds the simulated clock's range", sec)
	}
	return nil
}
