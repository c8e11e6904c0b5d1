package config

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzExperimentJSON drives bytes through what sgprs sweep -config does
// before its first run: Load's strict decode and Normalize, Spec, and
// exp.Compile's dry run of every cell. Every input must end in an error or
// a compiled spec, never a panic. Trace arrivals, which read the file the
// input names, and grids past 4096 cells are skipped.
func FuzzExperimentJSON(f *testing.F) {
	for _, name := range []string{"sweep-config.json", "sweep-config-scenario.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "cmd", "sgprs", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var e Experiment
		if err := decodeStrict(data, &e); err != nil {
			return
		}
		if e.Arrival != nil && e.Arrival.Kind == "trace" {
			t.Skip("a trace arrival reads the file the input names")
		}
		if cells := max(len(e.Variants), 4) * max(len(e.RateFactors), 1) * max(len(e.TaskCounts), 30); cells > 4096 {
			t.Skip("grid too large to compile per input")
		}
		_, _ = compile(&e)
	})
}
