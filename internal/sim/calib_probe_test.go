package sim

import (
	"fmt"
	"testing"

	"sgprs/internal/memo"
)

// TestCalibrationProbe is a diagnostic, not an assertion: it prints the
// FPS/DMR series for both scenarios so calibration work can see the current
// shape. Run with: go test ./internal/sim -run Probe -v -calibprobe
func TestCalibrationProbe(t *testing.T) {
	if !probeFlag {
		t.Skip("pass -calibprobe to run the calibration probe")
	}
	counts := []int{4, 8, 12, 14, 16, 18, 20, 22, 23, 24, 25, 26, 28, 30}
	for _, scenario := range []int{1, 2} {
		run := scenarioSeries(t, scenario, counts, 5, memo.Default())
		fmt.Printf("== scenario %d ==\n", scenario)
		for _, v := range ScenarioVariants() {
			fmt.Printf("%-12s", v.Name)
			for _, p := range run[v.Name] {
				fmt.Printf(" %2d:%5.0f/%.2f", p.Tasks, p.Summary.TotalFPS, p.Summary.DMR)
			}
			fmt.Println()
		}
	}
}
