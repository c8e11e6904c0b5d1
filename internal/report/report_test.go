package report

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"sgprs/internal/metrics"
	"sgprs/internal/speedup"
)

func TestFigure1Text(t *testing.T) {
	f := &Figure1{SMCounts: []int{1, 34, 68}}
	f.AddRow("conv", []float64{1, 21.9, 32})
	f.AddRow("resnet18", []float64{1, 18, 23})
	var buf bytes.Buffer
	if err := f.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"operation", "1sm", "34sm", "68sm", "conv", "32.00x", "resnet18", "23.00x"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure1CSV(t *testing.T) {
	f := &Figure1{SMCounts: []int{1, 68}}
	f.AddRow("conv", []float64{1, 32})
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[0] != "operation,1,68" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "conv,1.000,32.000" {
		t.Errorf("row = %q", lines[1])
	}
}

func TestFigure1AddRowPanicsOnMismatch(t *testing.T) {
	f := &Figure1{SMCounts: []int{1, 2}}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row did not panic")
		}
	}()
	f.AddRow("bad", []float64{1})
}

func TestFigure1Model(t *testing.T) {
	f := Figure1Model(speedup.DefaultModel(), []int{1, 68})
	if len(f.Order) != len(speedup.Classes()) {
		t.Fatalf("rows = %d", len(f.Order))
	}
	conv := f.Rows["conv"]
	if conv[1] < 31.9 || conv[1] > 32.1 {
		t.Errorf("conv at 68 = %v", conv[1])
	}
}

func mkScenario() *Scenario {
	mk := func(fps float64, missed int) metrics.Summary {
		return metrics.Summary{TotalFPS: fps, DMR: float64(missed) / 100, Missed: missed, Released: 100, Completed: int(fps)}
	}
	return &Scenario{
		Title:      "Scenario 1 (2 contexts)",
		TaskCounts: []int{10, 20, 30},
		Series: map[string][]metrics.Point{
			"naive": {
				{Tasks: 10, Summary: mk(300, 0)},
				{Tasks: 20, Summary: mk(490, 80)},
				{Tasks: 30, Summary: mk(474, 100)},
			},
			"sgprs-2.0x": {
				{Tasks: 10, Summary: mk(300, 0)},
				{Tasks: 20, Summary: mk(600, 0)},
				{Tasks: 30, Summary: mk(750, 17)},
			},
		},
		Order: []string{"naive", "sgprs-2.0x"},
	}
}

func TestScenarioText(t *testing.T) {
	var buf bytes.Buffer
	if err := mkScenario().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Scenario 1 (2 contexts)", "total FPS:", "DMR:", "pivot points",
		"naive", "sgprs-2.0x", "750", "0.170",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Pivot of naive is 10, of sgprs is 20.
	if !strings.Contains(out, "10 tasks") || !strings.Contains(out, "20 tasks") {
		t.Errorf("pivots missing:\n%s", out)
	}
}

// TestPivotLinesAlign: every pivot line starts its count in the same
// column, at least 15 characters in, and a label longer than 12 characters
// still keeps a space before the count.
func TestPivotLinesAlign(t *testing.T) {
	point := []metrics.Point{{Tasks: 4, Summary: metrics.Summary{TotalFPS: 120}}}
	s := &Scenario{
		Title:      "align",
		TaskCounts: []int{4},
		Series:     map[string][]metrics.Point{"naive": point, "sgprs-1.5x@rate=1.5": point},
		Order:      []string{"naive", "sgprs-1.5x@rate=1.5"},
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	_, pivots, _ := strings.Cut(buf.String(), "pivot points")
	want := []string{
		"  naive               4 tasks (saturation 120 fps, final 120 fps)",
		"  sgprs-1.5x@rate=1.5 4 tasks (saturation 120 fps, final 120 fps)",
	}
	if got := strings.Split(strings.TrimSpace(pivots), "\n")[1:]; !slices.Equal(got, want) {
		t.Errorf("pivot lines:\n%q\nwant:\n%q", got, want)
	}

	s.Order = []string{"naive"}
	buf.Reset()
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if line := "\n  naive        4 tasks (saturation"; !strings.Contains(buf.String(), line) {
		t.Errorf("short label lost its 12-column pad: want %q in\n%s", line, buf.String())
	}
}

// TestScenarioTextGaps: a series missing some sweep points (failed runs
// kept out by the parallel runner) renders each surviving point under its
// own task-count column with "-" placeholders, instead of shifting values
// left into the wrong columns.
func TestScenarioTextGaps(t *testing.T) {
	s := &Scenario{
		Title:      "gaps",
		TaskCounts: []int{10, 20, 30},
		Series: map[string][]metrics.Point{
			"partial": {
				{Tasks: 10, Summary: metrics.Summary{TotalFPS: 100}},
				{Tasks: 30, Summary: metrics.Summary{TotalFPS: 300}},
			},
		},
		Order: []string{"partial"},
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var fpsRow string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "partial") && strings.Contains(line, "100") {
			fpsRow = line
			break
		}
	}
	if fpsRow == "" {
		t.Fatalf("no FPS row in:\n%s", out)
	}
	fields := strings.Fields(fpsRow)
	want := []string{"partial", "100", "-", "300"}
	if len(fields) != len(want) {
		t.Fatalf("row fields = %v, want %v", fields, want)
	}
	for i := range want {
		if fields[i] != want[i] {
			t.Errorf("field %d = %q, want %q (row %q)", i, fields[i], want[i], fpsRow)
		}
	}
	if !strings.Contains(out, "[incomplete: 2/3 points]") {
		t.Errorf("pivot summary lacks incompleteness marker:\n%s", out)
	}
}

// TestScenarioFFTable pins the fast-forward table's gating: absent from
// classic output, present (with detected/skipped cells) once any point
// actually skipped cycles.
func TestScenarioFFTable(t *testing.T) {
	var buf bytes.Buffer
	if err := mkScenario().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "ff cycles") {
		t.Errorf("fast-forward table rendered for a run that never engaged:\n%s", buf.String())
	}
	s := mkScenario()
	s.Series["naive"][0].FastForward = metrics.FFStats{CyclesDetected: 1, CyclesSkipped: 178}
	buf.Reset()
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ff cycles (detected/skipped):", "1/178", "0/0"} {
		if !strings.Contains(out, want) {
			t.Errorf("fast-forward table missing %q:\n%s", want, out)
		}
	}
}

// TestScenarioFleetTable pins the fleet tables' gating (mirroring the fault
// tables): absent from single-device output, present once any point ran on a
// fleet, with the fleet-degraded DMR table additionally gated on degraded
// activity.
func TestScenarioFleetTable(t *testing.T) {
	var buf bytes.Buffer
	if err := mkScenario().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "fleet") {
		t.Errorf("fleet table rendered for a single-device run:\n%s", buf.String())
	}
	s := mkScenario()
	s.Series["naive"][0].Summary.Fleet = metrics.FleetStats{
		Devices: 3, PerDeviceUtilization: []float64{0.5, 0.4, 0.6},
		Crashes: 1, Migrations: 7, ShedReleases: 12,
		FleetDegradedReleased: 40, FleetDegradedMissed: 10, FleetDegradedDMR: 0.25,
	}
	buf.Reset()
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fleet (crashes/migrations/shed):", "1/7/12", "0/0/0", "fleet-degraded DMR:", "0.250"} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet tables missing %q:\n%s", want, out)
		}
	}
}

// TestScenarioCSVFleetColumns: a fleet point serialises its device count,
// ';'-joined per-device utilizations, and failover counters; single-device
// points keep zero/empty cells so the schema is stable.
func TestScenarioCSVFleetColumns(t *testing.T) {
	s := mkScenario()
	s.Series["naive"][0].Summary.Fleet = metrics.FleetStats{
		Devices: 3, PerDeviceUtilization: []float64{0.5, 0.4, 0.6},
		Crashes: 1, Migrations: 7, ShedReleases: 12,
		FailoverLatencyMeanMS: 4.5, FleetDegradedDMR: 0.25,
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasSuffix(lines[1], ",3,0.500;0.400;0.600,1,7,12,4.50,0.2500") {
		t.Errorf("fleet row = %q", lines[1])
	}
	if !strings.HasSuffix(lines[2], ",0,,0,0,0,0.00,0.0000") {
		t.Errorf("single-device row = %q", lines[2])
	}
}

func TestScenarioCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := mkScenario().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 7 { // header + 2 variants x 3 points
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[0] != "variant,tasks,fps,dmr,released,completed,missed,"+
		"dropped,drop_rate,p99_ms,p999_ms,queue_max,queue_mean,slo_hit_rate,"+
		"ff_cycles_detected,ff_cycles_skipped,"+
		"overruns,overrun_mass_ms,transient_faults,retries,recoveries,"+
		"skipped_jobs,killed_chains,degraded_released,degraded_missed,degraded_dmr,"+
		"devices,device_util,crashes,migrations,shed_releases,failover_ms,fleet_dmr" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "naive,10,300.0,") {
		t.Errorf("first row = %q", lines[1])
	}
}
