// Package report renders experiment results in the shapes the paper reports
// them: the Figure 1 speedup table and the Figure 3/4 FPS and DMR series,
// as aligned text for terminals and as CSV for plotting.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"text/tabwriter"

	"sgprs/internal/metrics"
	"sgprs/internal/speedup"
)

// Figure1 is the speedup-gain dataset: measured gain per operation class
// (plus whole networks) at each SM count.
type Figure1 struct {
	SMCounts []int
	// Rows maps a series name ("conv", "resnet18") to gains aligned with
	// SMCounts. Order lists the series in display order.
	Rows  map[string][]float64
	Order []string
}

// AddRow appends a named gain series. It panics on a length mismatch — a
// misaligned figure is a programming error.
func (f *Figure1) AddRow(name string, gains []float64) {
	if len(gains) != len(f.SMCounts) {
		panic(fmt.Sprintf("report: row %q has %d points, figure has %d SM counts", name, len(gains), len(f.SMCounts)))
	}
	if f.Rows == nil {
		f.Rows = map[string][]float64{}
	}
	f.Rows[name] = gains
	f.Order = append(f.Order, name)
}

// WriteText renders the figure as an aligned table.
func (f *Figure1) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	// Tab-terminate every cell — a trailing cell without a tab escapes
	// tabwriter's alignment and glues itself to the previous column.
	fmt.Fprint(tw, "operation")
	for _, n := range f.SMCounts {
		fmt.Fprintf(tw, "\t%dsm", n)
	}
	fmt.Fprint(tw, "\t\n")
	for _, name := range f.Order {
		fmt.Fprint(tw, name)
		for _, g := range f.Rows[name] {
			fmt.Fprintf(tw, "\t%.2fx", g)
		}
		fmt.Fprint(tw, "\t\n")
	}
	return tw.Flush()
}

// WriteCSV renders the figure as CSV (one row per series).
func (f *Figure1) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"operation"}
	for _, n := range f.SMCounts {
		header = append(header, strconv.Itoa(n))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, name := range f.Order {
		row := []string{name}
		for _, g := range f.Rows[name] {
			row = append(row, strconv.FormatFloat(g, 'f', 3, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Scenario renders a Figure 3/4 dataset: per-variant FPS and DMR series over
// task counts, plus the derived pivot points.
type Scenario struct {
	Title      string
	TaskCounts []int
	Series     map[string][]metrics.Point
	Order      []string
}

// textTable is one per-metric table of WriteText: its title, whether a
// point makes it worth showing (nil: always), and one point's cell.
type textTable struct {
	title string
	show  func(p metrics.Point) bool
	cell  func(p metrics.Point) string
}

// textTables are WriteText's tables, in print order: the paper's FPS and
// DMR always, the tail latency always (it is computed either way), and the
// rest only when some point recorded their figures — the overload pair
// (drop rate, SLO hit rate), the fast-forward cycle counters, fault and
// fleet activity — so closed-loop output keeps its classic shape.
var textTables = []textTable{
	{"total FPS", nil, func(p metrics.Point) string { return fmt.Sprintf("%.0f", p.Summary.TotalFPS) }},
	{"DMR", nil, func(p metrics.Point) string { return fmt.Sprintf("%.3f", p.Summary.DMR) }},
	{"p99 ms", nil, func(p metrics.Point) string { return fmt.Sprintf("%.1f", p.Summary.RespP99MS) }},
	{"drop rate",
		func(p metrics.Point) bool { return p.Summary.Dropped > 0 },
		func(p metrics.Point) string { return fmt.Sprintf("%.3f", p.Summary.DropRate) }},
	{"SLO hit rate",
		func(p metrics.Point) bool { return p.Summary.SLOMS > 0 },
		func(p metrics.Point) string { return fmt.Sprintf("%.3f", p.Summary.SLOHitRate) }},
	{"ff cycles (detected/skipped)",
		func(p metrics.Point) bool { return p.FastForward.CyclesSkipped > 0 },
		func(p metrics.Point) string {
			return fmt.Sprintf("%d/%d", p.FastForward.CyclesDetected, p.FastForward.CyclesSkipped)
		}},
	{"faults (overruns/transients/recovered)",
		func(p metrics.Point) bool {
			return p.Summary.Faults.Overruns > 0 || p.Summary.Faults.TransientFaults > 0
		},
		func(p metrics.Point) string {
			f := p.Summary.Faults
			return fmt.Sprintf("%d/%d/%d", f.Overruns, f.TransientFaults, f.Recoveries)
		}},
	{"degraded DMR",
		func(p metrics.Point) bool { return p.Summary.Faults.DegradedReleased > 0 },
		func(p metrics.Point) string { return fmt.Sprintf("%.3f", p.Summary.Faults.DegradedDMR) }},
	{"fleet (crashes/migrations/shed)",
		func(p metrics.Point) bool { return p.Summary.Fleet.Devices > 1 },
		func(p metrics.Point) string {
			fl := p.Summary.Fleet
			return fmt.Sprintf("%d/%d/%d", fl.Crashes, fl.Migrations, fl.ShedReleases)
		}},
	{"fleet-degraded DMR",
		func(p metrics.Point) bool { return p.Summary.Fleet.FleetDegradedReleased > 0 },
		func(p metrics.Point) string { return fmt.Sprintf("%.3f", p.Summary.Fleet.FleetDegradedDMR) }},
}

// WriteText renders every table of textTables that some point makes worth
// showing, then the pivot points.
func (s *Scenario) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s ==\n", s.Title); err != nil {
		return err
	}
	for _, table := range textTables {
		shown := table.show == nil
		for _, name := range s.Order {
			shown = shown || slices.ContainsFunc(s.Series[name], table.show)
		}
		if !shown {
			continue
		}
		fmt.Fprintf(w, "\n%s:\n", table.title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
		// Every cell is tab-terminated (including the last): a cell
		// without a trailing tab is outside tabwriter's alignment and
		// glues itself to the previous column.
		fmt.Fprint(tw, "tasks")
		for _, n := range s.TaskCounts {
			fmt.Fprintf(tw, "\t%d", n)
		}
		fmt.Fprint(tw, "\t\n")
		for _, name := range s.Order {
			fmt.Fprint(tw, name)
			// Align each point under its own task-count column: a
			// series may have gaps when individual sweep points
			// failed (the runner keeps finished siblings).
			byTasks := make(map[int]metrics.Point, len(s.Series[name]))
			for _, p := range s.Series[name] {
				byTasks[p.Tasks] = p
			}
			for _, n := range s.TaskCounts {
				if p, ok := byTasks[n]; ok {
					fmt.Fprintf(tw, "\t%s", table.cell(p))
				} else {
					fmt.Fprint(tw, "\t-")
				}
			}
			fmt.Fprint(tw, "\t\n")
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "\npivot points (largest task count with zero misses):")
	// Labels pad to at least 12 columns and always keep a space before the
	// count, however long the longest one is.
	tw := tabwriter.NewWriter(w, len("  ")+12+1, 0, 1, ' ', 0)
	for _, name := range s.Order {
		fmt.Fprintf(tw, "  %s\t%d tasks (saturation %.0f fps, final %.0f fps)",
			name,
			metrics.PivotPoint(s.Series[name]),
			metrics.SaturationFPS(s.Series[name]),
			metrics.FinalFPS(s.Series[name]))
		// Derived numbers over a gapped series (failed sweep points)
		// would otherwise read as trustworthy.
		if missing := len(s.TaskCounts) - len(s.Series[name]); missing > 0 {
			fmt.Fprintf(tw, " [incomplete: %d/%d points]", len(s.Series[name]), len(s.TaskCounts))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// WriteCSV renders the dataset as long-form CSV: variant,tasks,fps,dmr,
// released,completed,missed plus the open-loop columns (dropped,drop_rate,
// p99_ms,p999_ms,queue_max,queue_mean,slo_hit_rate), the steady-state
// fast-forward counters (ff_cycles_detected,ff_cycles_skipped), and the
// fault-injection accounting (overruns,overrun_mass_ms,transient_faults,
// retries,recoveries,skipped_jobs,killed_chains,degraded_released,
// degraded_missed,degraded_dmr), and the fleet accounting (devices,
// device_util — per-device utilizations joined with ';' in fleet-position
// order — crashes,migrations,shed_releases,failover_ms,fleet_dmr) — zero (or
// empty, for device_util) on closed-loop, ineligible, fault-free, or
// single-device runs, so the schema is stable across traffic, fault, and
// fleet models.
func (s *Scenario) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"variant", "tasks", "fps", "dmr", "released", "completed", "missed",
		"dropped", "drop_rate", "p99_ms", "p999_ms", "queue_max", "queue_mean", "slo_hit_rate",
		"ff_cycles_detected", "ff_cycles_skipped",
		"overruns", "overrun_mass_ms", "transient_faults", "retries", "recoveries",
		"skipped_jobs", "killed_chains", "degraded_released", "degraded_missed", "degraded_dmr",
		"devices", "device_util", "crashes", "migrations", "shed_releases", "failover_ms", "fleet_dmr",
	}); err != nil {
		return err
	}
	for _, name := range s.Order {
		for _, p := range s.Series[name] {
			rec := []string{
				name,
				strconv.Itoa(p.Tasks),
				strconv.FormatFloat(p.Summary.TotalFPS, 'f', 1, 64),
				strconv.FormatFloat(p.Summary.DMR, 'f', 4, 64),
				strconv.Itoa(p.Summary.Released),
				strconv.Itoa(p.Summary.Completed),
				strconv.Itoa(p.Summary.Missed),
				strconv.Itoa(p.Summary.Dropped),
				strconv.FormatFloat(p.Summary.DropRate, 'f', 4, 64),
				strconv.FormatFloat(p.Summary.RespP99MS, 'f', 2, 64),
				strconv.FormatFloat(p.Summary.RespP999MS, 'f', 2, 64),
				strconv.Itoa(p.Summary.QueueDepthMax),
				strconv.FormatFloat(p.Summary.QueueDepthMean, 'f', 3, 64),
				strconv.FormatFloat(p.Summary.SLOHitRate, 'f', 4, 64),
				strconv.FormatUint(p.FastForward.CyclesDetected, 10),
				strconv.FormatUint(p.FastForward.CyclesSkipped, 10),
				strconv.Itoa(p.Summary.Faults.Overruns),
				strconv.FormatFloat(p.Summary.Faults.OverrunMassMS, 'f', 2, 64),
				strconv.Itoa(p.Summary.Faults.TransientFaults),
				strconv.Itoa(p.Summary.Faults.Retries),
				strconv.Itoa(p.Summary.Faults.Recoveries),
				strconv.Itoa(p.Summary.Faults.SkippedJobs),
				strconv.Itoa(p.Summary.Faults.KilledChains),
				strconv.Itoa(p.Summary.Faults.DegradedReleased),
				strconv.Itoa(p.Summary.Faults.DegradedMissed),
				strconv.FormatFloat(p.Summary.Faults.DegradedDMR, 'f', 4, 64),
				strconv.Itoa(p.Summary.Fleet.Devices),
				deviceUtil(p.Summary.Fleet.PerDeviceUtilization),
				strconv.Itoa(p.Summary.Fleet.Crashes),
				strconv.Itoa(p.Summary.Fleet.Migrations),
				strconv.Itoa(p.Summary.Fleet.ShedReleases),
				strconv.FormatFloat(p.Summary.Fleet.FailoverLatencyMeanMS, 'f', 2, 64),
				strconv.FormatFloat(p.Summary.Fleet.FleetDegradedDMR, 'f', 4, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// deviceUtil renders per-device utilizations as one CSV cell, joined with
// ';' in fleet-position order (empty for single-device runs).
func deviceUtil(utils []float64) string {
	out := ""
	for i, u := range utils {
		if i > 0 {
			out += ";"
		}
		out += strconv.FormatFloat(u, 'f', 3, 64)
	}
	return out
}

// Figure1Model samples the analytic speedup model into a Figure1 dataset —
// the fallback when measured data is not wanted.
func Figure1Model(m *speedup.Model, smCounts []int) *Figure1 {
	f := &Figure1{SMCounts: smCounts}
	tab := m.Table(smCounts)
	for _, cl := range speedup.Classes() {
		f.AddRow(cl.String(), tab[cl])
	}
	return f
}
