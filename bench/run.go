package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"
)

// opts are one workload run's settings.
type opts struct {
	dir     string
	seed    uint64
	seconds float64
	trace   bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is everything one workload run measured.
type record struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Trace     bool   `json:"trace"`
	Check     string `json:"check"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Passes    int    `json:"passes"`
	// Slowdown is the median over passes of the reference chunks' slowdown:
	// how much slower than nominal the host ran.
	Slowdown float64 `json:"slowdown"`
	// Metrics are the end-to-end metrics, or with Trace the per-layer ones.
	Metrics map[string]metric `json:"metrics"`
	// Samples are the values behind each end-to-end metric, for -compare's
	// quartiles: one per pass (setup_s: per batch of set-ups).
	Samples map[string][]float64 `json:"samples,omitempty"`
}

// result is the JSON object a run prints as its last line.
func (r *record) result() map[string]any {
	return map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   r.Metrics,
	}
}

// measure runs one workload: one warm-up pass, discarded, then measured
// passes for o.seconds, each after set-ups of its own. Every pass, the
// warm-up included, is checked against the goldens. A traced run splits its
// time between plain and CPU-profiled passes, then profiles allocations over
// one more pass.
func measure(w workload, o opts) (*record, error) {
	var spans *spanLog
	if o.trace {
		spans = &spanLog{t0: time.Now()}
	}
	begin := time.Now()
	g, err := loadGoldens(o.dir)
	if err != nil {
		return nil, err
	}
	s, err := newSetup(w, o.seed, spans)
	if err != nil {
		return nil, err
	}
	chk := g.checker(w.name, o.seed)
	rec := &record{Workload: w.name, Seed: o.seed, Trace: o.trace, Check: chk.mode}
	checked := func(p pass) pass {
		rec.Attempted += len(p.results)
		rec.Failed += chk.check(p)
		return p
	}
	passesFor := func(seconds float64, minPasses int) ([]pass, error) {
		var ps []pass
		start := time.Now()
		for len(ps) < minPasses || time.Since(start).Seconds() < seconds {
			if err := s.redo(spans); err != nil {
				return nil, err
			}
			p := checked(runPass(s, spans))
			// A pass that passes the check repeats the warm-up's results.
			// Kept, they would grow the live heap, and with it every later
			// pass's time and the peak RSS, by how many passes the host
			// managed.
			p.results = nil
			ps = append(ps, p)
		}
		return ps, nil
	}

	warm := checked(runPass(s, spans))
	seconds, minPasses := o.seconds, 3
	if o.trace {
		seconds, minPasses = o.seconds/2, 2
	}
	passes, err := passesFor(seconds, minPasses)
	if err != nil {
		return nil, err
	}
	var misses uint64
	for _, p := range passes {
		misses += p.misses
	}
	counts := countMetrics(s, warm, misses)
	rec.Passes = len(passes)
	rec.Slowdown = medianOf(passes, func(p pass) float64 { return p.slowdown })

	if !o.trace {
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		rec.Metrics, rec.Samples = e2eMetrics(s, passes, rss)
	} else {
		lay, err := profileLayers(w, o, s, passes, passesFor, checked)
		if err != nil {
			return nil, err
		}
		rec.Metrics = layerMetrics(s, lay, counts)
		spans.add("workload", begin, time.Now(), map[string]any{"name": w.name, "seed": o.seed})
		if err := spans.write(filepath.Join(o.dir, "out", w.name+".trace.json")); err != nil {
			return nil, err
		}
	}
	rec.Correct = rec.Failed == 0
	report(os.Stdout, s, rec, counts)
	return rec, nil
}

// layerData is what a traced run measures per layer.
type layerData struct {
	cpuUS, allocs map[string]float64 // per simulated second
	overhead      float64            // 1 - traced/untraced simsec_per_s
	passS         float64            // an untraced pass's wall time
}

// profileLayers takes a CPU profile over passes filling the run's second
// half, then an exact allocation profile (every allocation recorded) of one
// more pass, and folds both by layer. plain are the run's untraced passes.
func profileLayers(w workload, o opts, s *setup, plain []pass, passesFor func(float64, int) ([]pass, error), checked func(pass) pass) (*layerData, error) {
	base := filepath.Join(o.dir, "out", w.name)
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(base + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	profiled, err := passesFor(o.seconds/2, 2)
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if err := s.redo(nil); err != nil {
		return nil, err
	}

	// At rate 1 the runtime records every allocation, and writes the
	// profile unscaled; both snapshots must be taken at that rate.
	memRate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	var p pass
	err = writeAllocs(base + ".allocs-pre.pprof")
	if err == nil {
		p = runPass(s, nil)
		err = writeAllocs(base + ".allocs-post.pprof")
	}
	runtime.MemProfileRate = memRate
	if err != nil {
		return nil, err
	}
	checked(p)

	cpu, err := foldProfile(base+".cpu.pprof", "")
	if err != nil {
		return nil, err
	}
	pre, err := foldProfile(base+".allocs-pre.pprof", "alloc_objects")
	if err != nil {
		return nil, err
	}
	post, err := foldProfile(base+".allocs-post.pprof", "alloc_objects")
	if err != nil {
		return nil, err
	}
	rate := func(p pass) float64 { return s.simSec / p.seconds }
	d := &layerData{
		cpuUS:    map[string]float64{},
		allocs:   map[string]float64{},
		overhead: 1 - medianOf(profiled, rate)/medianOf(plain, rate),
		passS:    medianOf(plain, func(p pass) float64 { return p.seconds }),
	}
	for _, l := range layers {
		d.cpuUS[l] = cpu[l] / (s.simSec * float64(len(profiled)))
		d.allocs[l] = (post[l] - pre[l]) / s.simSec
	}
	return d, nil
}

// e2eDefs are the end-to-end metrics, in print order.
var e2eDefs = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"simsec_per_s", "sim-s/s"},
	{"cell_ms_p50", "ms"},
	{"cell_ms_p90", "ms"},
	{"allocs_per_simsec", "allocs/sim-s"},
	{"peak_rss_mb", "MiB"},
}

// e2eMetrics computes the end-to-end metrics and the samples behind them,
// over every measured pass and batch of set-ups.
func e2eMetrics(s *setup, passes []pass, rssMiB float64) (map[string]metric, map[string][]float64) {
	samples := map[string][]float64{
		"setup_s":     s.totalS,
		"peak_rss_mb": {rssMiB},
	}
	// Each cell's time is its median over the passes; the percentiles are
	// then taken across cells. Pooling every sample instead would put the
	// percentile between the extremes of two neighbouring cells.
	cells := make([]float64, len(s.jobs))
	for i := range cells {
		cells[i] = medianOf(passes, func(p pass) float64 { return p.cellMS[i] })
	}
	slices.Sort(cells)
	var mallocs uint64
	for _, p := range passes {
		sorted := slices.Sorted(slices.Values(p.cellMS))
		samples["simsec_per_s"] = append(samples["simsec_per_s"], s.simSec/p.seconds)
		samples["cell_ms_p50"] = append(samples["cell_ms_p50"], quantile(sorted, 0.5))
		samples["cell_ms_p90"] = append(samples["cell_ms_p90"], quantile(sorted, 0.9))
		samples["allocs_per_simsec"] = append(samples["allocs_per_simsec"], float64(p.mallocs)/s.simSec)
		mallocs += p.mallocs
	}
	values := map[string]float64{
		"setup_s":           median(s.totalS),
		"simsec_per_s":      median(samples["simsec_per_s"]),
		"cell_ms_p50":       quantile(cells, 0.5),
		"cell_ms_p90":       quantile(cells, 0.9),
		"allocs_per_simsec": float64(mallocs) / (s.simSec * float64(len(passes))),
		"peak_rss_mb":       rssMiB,
	}
	out := map[string]metric{}
	for _, d := range e2eDefs {
		out[d.name] = metric{values[d.name], d.unit}
	}
	return out, samples
}

// countMetrics are the exact counts of one pass; every pass repeats them.
func countMetrics(s *setup, p pass, passMisses uint64) map[string]metric {
	var released, completed, missed, dropped, migrations, shed, transient, retries, overruns int
	var hashed, skipped, collisions, detected uint64
	var util float64
	engaged := 0
	for _, r := range p.results {
		sum := r.Result.Summary
		released += sum.Released
		completed += sum.Completed
		missed += sum.Missed
		dropped += sum.Dropped
		migrations += sum.Fleet.Migrations
		shed += sum.Fleet.ShedReleases
		transient += sum.Faults.TransientFaults
		retries += sum.Faults.Retries
		overruns += sum.Faults.Overruns
		ff := r.Result.FastForward
		hashed += ff.BoundariesHashed
		skipped += ff.CyclesSkipped
		collisions += ff.HashCollisions
		detected += ff.CyclesDetected
		if ff.CyclesSkipped > 0 {
			engaged++
		}
		util += r.Result.DeviceUtilization
	}
	n := float64(len(p.results))
	perDetect := 0.0
	if hashed > 0 {
		perDetect = float64(detected) / float64(hashed)
	}
	return map[string]metric{
		"workload.released":      {float64(released), "jobs/pass"},
		"metrics.completed":      {float64(completed), "jobs/pass"},
		"metrics.missed":         {float64(missed), "jobs/pass"},
		"metrics.dropped":        {float64(dropped), "jobs/pass"},
		"gpu.util_mean":          {util / n, "fraction"},
		"ff.boundaries_hashed":   {float64(hashed), "count/pass"},
		"ff.cycles_skipped":      {float64(skipped), "cycles/pass"},
		"ff.collisions":          {float64(collisions), "count/pass"},
		"ff.engaged_frac":        {float64(engaged) / n, "fraction"},
		"ff.hashes_per_detect":   {perDetect, "fraction"},
		"cluster.migrations":     {float64(migrations), "count/pass"},
		"cluster.shed_releases":  {float64(shed), "jobs/pass"},
		"fault.transient_faults": {float64(transient), "count/pass"},
		"fault.retries":          {float64(retries), "count/pass"},
		"fault.overruns":         {float64(overruns), "count/pass"},
		"memo.graph_misses":      {float64(s.fill.GraphMisses), "count"},
		"memo.profile_misses":    {float64(s.fill.ProfileMisses), "count"},
		"memo.pass_misses":       {float64(passMisses), "count"},
	}
}

// layerMetrics are the per-layer metrics of a traced run.
func layerMetrics(s *setup, d *layerData, counts map[string]metric) map[string]metric {
	out := map[string]metric{
		"exp.compile_ms": {median(s.compileMS), "ms"},
		"memo.fill_ms":   {median(s.fillMS), "ms"},
		"runner.pass_s":  {d.passS, "s"},
		"trace.overhead": {d.overhead, "fraction"},
	}
	for k, v := range counts {
		out[k] = v
	}
	for _, l := range layers {
		out[l+".cpu_us_per_simsec"] = metric{d.cpuUS[l], "us/sim-s"}
		out[l+".allocs_per_simsec"] = metric{d.allocs[l], "allocs/sim-s"}
	}
	return out
}

// report prints a run's metrics for a reader; the JSON line follows it.
func report(out io.Writer, s *setup, rec *record, counts map[string]metric) {
	fmt.Fprintf(out, "%s seed=%d: %d cells, %.0f sim-s per pass, %d measured passes after 1 warm-up, %d set-ups\n",
		rec.Workload, rec.Seed, len(s.jobs), s.simSec, rec.Passes, len(s.totalS)*setupsPerPass)
	fmt.Fprintf(out, "  check: %s\n", rec.Check)
	fmt.Fprintf(out, "  host: reference chunk %.3g× its nominal time (median over passes); timings are divided by that per cell and set-up\n", rec.Slowdown)
	fmt.Fprintf(out, "  %-24s %g fraction (%d of %d cells failed)\n", "fail_rate", float64(rec.Failed)/float64(rec.Attempted), rec.Failed, rec.Attempted)
	if !rec.Trace {
		// n counts the values a metric is taken over; p25 and p75 are the
		// quartiles of its samples.
		for _, d := range e2eDefs {
			xs := slices.Sorted(slices.Values(rec.Samples[d.name]))
			n := fmt.Sprint(len(xs))
			if d.name == "cell_ms_p50" || d.name == "cell_ms_p90" {
				n = fmt.Sprintf("%d cells × %d passes", len(s.jobs), len(xs))
			}
			fmt.Fprintf(out, "  %-24s %-12.6g %-13s n=%-20s p25=%.6g p75=%.6g\n",
				d.name, rec.Metrics[d.name].Value, d.unit, n, quantile(xs, 0.25), quantile(xs, 0.75))
		}
	}
	rest := counts
	if rec.Trace {
		rest = rec.Metrics // the counts and every per-layer metric
	}
	for _, k := range sortedKeys(rest) {
		fmt.Fprintf(out, "  %-24s %-12.6g %s\n", k, rest[k].Value, rest[k].Unit)
	}
}

// peakRSSMiB is this process's peak resident set size.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("bench: getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // kilobytes on Linux
}

func medianOf(ps []pass, f func(pass) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

func median(xs []float64) float64 {
	return quantile(slices.Sorted(slices.Values(xs)), 0.5)
}

// quantile interpolates linearly between the closest ranks of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}
