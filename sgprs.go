// Package sgprs is a library-scale reproduction of "SGPRS: Seamless GPU
// Partitioning Real-Time Scheduler for Periodic Deep Learning Workloads"
// (Fakhim Babaei and Chantem, DATE 2024).
//
// It provides, on a deterministic discrete-event model of a spatially
// partitioned GPU (an RTX 2080 Ti with CUDA-MPS-style contexts and priority
// streams):
//
//   - the SGPRS real-time scheduler — offline WCET profiling, proportional
//     virtual deadlines, two-level priority assignment with online medium
//     promotion, three-rule context assignment, EDF stage queues, and
//     zero-cost partition switching over a pre-created context pool;
//   - the paper's naive spatial-partitioning baseline;
//   - a ResNet18 operator graph (plus VGG11/TinyCNN/MLP) with a MAC-driven
//     cost model and a WCET-balanced stage partitioner;
//   - workload generation, metrics (total FPS, deadline miss rate, pivot
//     point), execution tracing, and declarative experiments that
//     regenerate every figure of the paper's evaluation.
//
// This package is a facade: it re-exports the pieces a downstream user needs
// to run experiments. The implementation lives under internal/; DESIGN.md
// documents the architecture, the hardware-substitution decisions, and the
// calibration of absolute numbers against the paper.
//
// Experiments are declarative: an Experiment spec names scheduler variants
// and crosses them with typed sweep axes (task count, over-subscription,
// frame rate, release jitter, work variation, horizon), and a process-wide
// registry ships the paper's scenarios plus built-in studies — list them
// with Experiments(), run one with RunExperiment (context cancellation and
// streaming per-job results included). A scenario regeneration is
// RunExperiment over ScenarioExperiment; a one-variant sweep is an
// Experiment with that variant and a TasksAxis.
//
// RunExperiment fans the independent runs out across a deterministic worker
// pool (internal/runner): results are bit-identical to a single-worker
// execution for any worker count. See SweepOptions.
//
// Metrics stream as the simulation runs and finished jobs are recycled, so a
// run's live memory is proportional to in-flight work, not horizon length —
// hour-long stability horizons cost the same heap as two-second smokes. Use
// a Session to amortise engine/device/task setup across many runs; every
// sweep worker gets one automatically.
//
// Quick start:
//
//	res, err := sgprs.Run(sgprs.RunConfig{
//	    Kind:       sgprs.KindSGPRS,
//	    ContextSMs: []int{34, 34},
//	    NumTasks:   8,
//	})
//	fmt.Println(res.Summary)
package sgprs

import (
	"context"
	"io"

	"sgprs/internal/cluster"
	"sgprs/internal/exp"
	"sgprs/internal/memo"
	"sgprs/internal/metrics"
	"sgprs/internal/rt"
	"sgprs/internal/runner"
	"sgprs/internal/sim"
	"sgprs/internal/workload"
)

// RunConfig describes one simulation run. See sim.RunConfig for field
// documentation.
type RunConfig = sim.RunConfig

// Result is the outcome of one run.
type Result = sim.Result

// Summary holds the paper's evaluation metrics for one run.
type Summary = metrics.Summary

// Point is one sweep sample (task count plus summary).
type Point = metrics.Point

// Kind selects the scheduler implementation.
type Kind = sim.Kind

// Scheduler kinds.
const (
	KindSGPRS = sim.KindSGPRS
	KindNaive = sim.KindNaive
)

// Placement selects how a fleet run homes its task chains onto devices
// (RunConfig.Placement; meaningful only with Devices > 1). See
// internal/cluster for the policy semantics.
type Placement = cluster.Placement

// Fleet placement policies.
const (
	PlaceBinPack    = cluster.PlaceBinPack
	PlaceContextFit = cluster.PlaceContextFit
	PlaceLoadSteal  = cluster.PlaceLoadSteal
)

// ParsePlacement resolves the config-file spelling of a placement policy
// ("bin-pack", "context-fit", "load-steal"; empty means bin-pack).
func ParsePlacement(s string) (Placement, error) { return cluster.ParsePlacement(s) }

// FailoverPolicy selects what happens to chains homed on a crashed fleet
// device (RunConfig.Failover): migrate with cost, wait for the origin's
// restart, or shed the chain.
type FailoverPolicy = rt.FailoverPolicy

// Fleet failover policies. FailoverDefault means FailoverMigrate.
const (
	FailoverDefault = rt.FailoverDefault
	FailoverMigrate = rt.FailoverMigrate
	FailoverRetry   = rt.FailoverRetry
	FailoverShed    = rt.FailoverShed
)

// ParseFailoverPolicy resolves the config-file spelling of a failover policy
// ("migrate", "retry", "shed"; empty means the default).
func ParseFailoverPolicy(s string) (FailoverPolicy, error) { return rt.ParseFailoverPolicy(s) }

// FleetStats is the fleet section of a run summary (Summary.Fleet):
// per-device utilization, crash/restart/migration/shedding counters, and the
// degraded-fleet deadline accounting. All-zero on single-device runs.
type FleetStats = metrics.FleetStats

// SweepOptions configures the parallel experiment runner: worker count
// (default one per CPU), progress callbacks, and the offline cache. The zero
// value is ready to use. Worker count never affects results; per-cell seed
// decorrelation is the Experiment's SeedPolicy.
type SweepOptions = runner.Options

// SweepJobResult pairs a job with its outcome (result or attributed error).
type SweepJobResult = runner.JobResult

// JobError attributes one failed run to its (variant, task count).
type JobError = runner.JobError

// JobErrors aggregates every failed job of a sweep. Sweeps return it
// alongside the completed points, never instead of them.
type JobErrors = runner.Errors

// SweepProgress observes job completions during a sweep.
type SweepProgress = runner.Progress

// OfflineCache memoizes the simulation's offline phase — the calibrated
// reference graph and the per-shape WCET profile tables — across runs and
// across the runner's workers. Cache hits are bit-identical to recomputing
// (the memo package documents the argument; tests pin it). Run and
// RunExperiment use the process-wide default cache; pass an explicit cache through
// SweepOptions.Cache to scope reuse, or set SweepOptions.NoOfflineCache to
// measure the uncached path.
type OfflineCache = memo.Cache

// OfflineStats counts offline-cache traffic (hits and misses per table).
type OfflineStats = memo.Stats

// NewOfflineCache returns an empty offline-phase cache.
func NewOfflineCache() *OfflineCache { return memo.New() }

// DefaultOfflineCache returns the process-wide cache used by Run and
// RunExperiment; DefaultOfflineCache().Stats() reports its traffic.
func DefaultOfflineCache() *OfflineCache { return memo.Default() }

// Session executes simulation runs over reused infrastructure — engine,
// device, job pool, task structures — so a sequence of runs (a sweep, a
// parameter search, a long measurement campaign) pays setup once instead of
// per run, and live memory stays O(in-flight jobs) whatever the horizon.
// Results are bit-identical to fresh Run calls. A Session is
// single-threaded; the runner gives each pool worker its own.
type Session = sim.Session

// NewSession returns a run session backed by the process-wide offline cache.
func NewSession() *Session { return sim.NewSession(memo.Default()) }

// NewSessionWith is NewSession with an explicit offline cache (nil disables
// offline-phase memoization).
func NewSessionWith(cache *OfflineCache) *Session { return sim.NewSession(cache) }

// Run executes one simulation and returns its metrics. The offline phase is
// served from the default cache; results are bit-identical to an uncached
// run.
func Run(cfg RunConfig) (Result, error) { return sim.Run(cfg) }

// DeriveSeed deterministically mixes a per-job seed from the base seed and
// a job's sweep coordinates.
func DeriveSeed(base uint64, variant string, tasks int) uint64 {
	return runner.DeriveSeed(base, variant, tasks)
}

// Experiment is a declarative experiment specification: named scheduler
// variants (RunConfig templates) crossed with typed sweep axes, compiled
// into the runner's job list at execution time. Specs are plain data —
// clone one from the registry, tweak an axis, register the result. See
// internal/exp for the compilation contract.
type Experiment = exp.Spec

// ExperimentAxis is one typed sweep dimension of an Experiment. Build axes
// with TasksAxis, OverSubAxis, FPSAxis, JitterAxis, WorkVarAxis, and
// HorizonAxis.
type ExperimentAxis = exp.Axis

// AxisKind identifies an axis's sweep dimension.
type AxisKind = exp.AxisKind

// Axis kinds, for inspecting or replacing a spec's axes.
const (
	AxisTasks     = exp.AxisTasks
	AxisOverSub   = exp.AxisOverSub
	AxisFPS       = exp.AxisFPS
	AxisJitter    = exp.AxisJitterMS
	AxisWorkVar   = exp.AxisWorkVar
	AxisHorizon   = exp.AxisHorizonSec
	AxisRate      = exp.AxisRate
	AxisArrival   = exp.AxisArrival
	AxisDevices   = exp.AxisDevices
	AxisPlacement = exp.AxisPlacement
)

// AxisKinds returns every axis kind in declaration order; each stringifies
// to the name validation errors use ("task-count", "arrival-rate", ...).
func AxisKinds() []AxisKind { return exp.Kinds() }

// ExperimentResults is an executed experiment: per-job outcomes in
// submission order plus the folding metadata (expanded variant labels,
// task axis) to read them back as figure series.
type ExperimentResults = exp.ResultSet

// ExperimentSeedPolicy selects how compiled jobs get their seeds:
// SeedFixed (the default: every cell keeps its variant's seed) or SeedDerived
// (per-cell decorrelation via DeriveSeed).
type ExperimentSeedPolicy = exp.SeedPolicy

// Experiment seed policies.
const (
	SeedFixed   = exp.SeedFixed
	SeedDerived = exp.SeedDerived
)

// Experiment axis constructors. Each axis overwrites the corresponding
// RunConfig field per grid cell; the task axis is always the innermost
// expansion, giving one result series per variant × other-axis combination.
func TasksAxis(counts ...int) ExperimentAxis       { return exp.Tasks(counts...) }
func TaskRangeAxis(lo, hi int) ExperimentAxis      { return exp.TaskRange(lo, hi) }
func OverSubAxis(levels ...float64) ExperimentAxis { return exp.OverSub(levels...) }
func FPSAxis(rates ...float64) ExperimentAxis      { return exp.FPS(rates...) }
func JitterAxis(ms ...float64) ExperimentAxis      { return exp.JitterMS(ms...) }
func WorkVarAxis(fracs ...float64) ExperimentAxis  { return exp.WorkVar(fracs...) }
func HorizonAxis(secs ...float64) ExperimentAxis   { return exp.HorizonSec(secs...) }
func RateAxis(factors ...float64) ExperimentAxis   { return exp.Rate(factors...) }
func ArrivalAxis(procs ...Arrival) ExperimentAxis  { return exp.Arrivals(procs...) }

// DevicesAxis sweeps the fleet size (RunConfig.Devices); PlacementAxis
// sweeps the fleet's chain-homing policy. Both apply to fleet runs
// (Devices > 1) — a placement axis must not be crossed with device count 1.
func DevicesAxis(counts ...int) ExperimentAxis           { return exp.Devices(counts...) }
func PlacementAxis(policies ...Placement) ExperimentAxis { return exp.Placements(policies...) }

// Arrival is a pluggable release-time model: set RunConfig.Arrival to drive
// a run open-loop (nil keeps the classic closed-loop periodic releases,
// bit-identical to earlier versions), or sweep processes with ArrivalAxis
// and intensities with RateAxis. See internal/workload for the contract.
type Arrival = workload.Arrival

// TraceData is a parsed arrival trace: sorted release timestamps plus an
// optional per-row task assignment, replayed by TraceArrival.
type TraceData = workload.TraceData

// PeriodicArrival releases jobs every task period divided by rate (0 and 1
// both mean the task's own period, matching Arrival == nil bit for bit);
// deadlines stay derived from the period, so rate > 1 is open-loop overload.
func PeriodicArrival(rate float64) Arrival { return workload.Periodic{Rate: rate} }

// PoissonArrival is a memoryless open-loop stream at ratePerSec arrivals per
// second per task (0 = each task's natural closed-loop rate).
func PoissonArrival(ratePerSec float64) Arrival { return workload.Poisson{Rate: ratePerSec} }

// BurstyArrival alternates Poisson ON windows (ratePerSec, 0 = natural rate)
// with silent OFF windows — synchronized burst load.
func BurstyArrival(onSec, offSec, ratePerSec float64) Arrival {
	return workload.Bursty{OnSec: onSec, OffSec: offSec, Rate: ratePerSec}
}

// MMPPArrival is a Markov-modulated Poisson process cycling through states
// with the given per-state rates and mean exponential sojourns.
func MMPPArrival(ratesPerSec, meanSojournSec []float64) Arrival {
	return workload.MMPP{RatesPerSec: ratesPerSec, MeanSojournSec: meanSojournSec}
}

// DiurnalArrival follows a sinusoidal rate curve between minRate and maxRate
// (0 = twice the natural rate) with one cycle per periodSec.
func DiurnalArrival(periodSec, minRate, maxRate float64) Arrival {
	return workload.Diurnal{PeriodSec: periodSec, MinRate: minRate, MaxRate: maxRate}
}

// TraceArrival replays a recorded trace at the given speed (0 or 1 = as
// recorded; >1 compresses time).
func TraceArrival(data *TraceData, speed float64) Arrival {
	return workload.Trace{Data: data, Speed: speed}
}

// LoadTrace parses an arrival trace file — CSV (time_s[,task] columns) or
// JSON ({"times_s": [...], "tasks": [...]}) by extension. See README for the
// formats.
func LoadTrace(path string) (*TraceData, error) { return workload.LoadTrace(path) }

// ParseTraceCSV and ParseTraceJSON parse trace bytes from a reader, for
// traces that do not live in files.
func ParseTraceCSV(name string, r io.Reader) (*TraceData, error) {
	return workload.ParseTraceCSV(name, r)
}
func ParseTraceJSON(name string, r io.Reader) (*TraceData, error) {
	return workload.ParseTraceJSON(name, r)
}

// SyntheticTrace generates a reproducible Poisson trace (ratePerSec rows per
// second over durationSec, demultiplexed round-robin onto tasks) — handy for
// trace-replay tests and demos without shipping recorded data.
func SyntheticTrace(name string, seed uint64, ratePerSec, durationSec float64, tasks int) *TraceData {
	return workload.SyntheticTrace(name, seed, ratePerSec, durationSec, tasks)
}

// Experiments returns every registered experiment (the paper's scenario 1
// and 2 plus the built-in ablation grid, jitter ladder, and
// over-subscription sweep, and anything added via RegisterExperiment) as
// independent clones, in registration order.
func Experiments() []*Experiment { return exp.List() }

// LookupExperiment returns a clone of the named registered experiment.
// Mutating the clone (e.g. shrinking an axis for a smoke run) never
// affects the registry.
func LookupExperiment(name string) (*Experiment, bool) { return exp.Lookup(name) }

// RegisterExperiment adds a spec to the process-wide registry. The spec
// must be named, must compile, and must not collide with a registered name.
func RegisterExperiment(s *Experiment) error { return exp.Register(s) }

// ScenarioExperiment builds the spec describing one paper scenario (1 or 2):
// the naive baseline plus SGPRS at over-subscription 1.0/1.5/2.0 over the
// task counts. Run it with RunExperiment.
func ScenarioExperiment(scenario int, taskCounts []int, horizonSec float64, seed uint64) (*Experiment, error) {
	return exp.Scenario(scenario, taskCounts, horizonSec, seed)
}

// RunExperiment compiles and executes an experiment spec on the worker
// pool. Per-job results stream through opt.Progress as they finish; a
// cancelled ctx stops dispatching new jobs, drains in-flight ones, and
// attributes the skipped jobs' errors to the context
// (errors.Is(err, context.Canceled)). Completed results are returned
// alongside any aggregate error, never instead of it; only a compile
// error yields a nil result set.
func RunExperiment(ctx context.Context, spec *Experiment, opt SweepOptions) (*ExperimentResults, error) {
	return exp.Run(ctx, spec, opt)
}

// ContextPool computes the per-context SM allocation for np contexts at
// over-subscription level os on a device with totalSMs SMs.
func ContextPool(np int, os float64, totalSMs int) []int {
	return sim.ContextPool(np, os, totalSMs)
}

// PivotPoint reports the largest task count with zero deadline misses in a
// sweep series.
func PivotPoint(series []Point) int { return metrics.PivotPoint(series) }

// SaturationFPS reports the maximum total FPS reached in a sweep series.
func SaturationFPS(series []Point) float64 { return metrics.SaturationFPS(series) }
