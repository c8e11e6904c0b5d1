// Package exp is the declarative experiment layer: an experiment is data —
// a named Spec of scheduler variants crossed with typed sweep axes — not a
// hand-written driver. Compile expands a Spec into the runner's job list
// (validating every grid cell up front, so a bad axis value fails at compile
// time with its variant and axis named, never deep inside a pool worker),
// Run executes it with context cancellation and streaming per-job results,
// and a process-wide registry (Register/Lookup/List) names the paper's
// scenarios and the built-in studies so new experiments are registry entries
// instead of new code paths.
//
// A Spec is the only way this repository runs more than one cell: the CLIs,
// the examples, and the facade's RunExperiment all compile one and hand it
// to Run. Determinism is inherited from the runner: a compiled job's seed is
// its variant's configured seed, fixed at compile time, so results are
// bit-identical across worker counts. Committed golden digests
// (testdata/golden.txt) pin the results of a representative grid.
package exp

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"sgprs/internal/cluster"
	"sgprs/internal/fault"
	"sgprs/internal/runner"
	"sgprs/internal/sim"
	"sgprs/internal/speedup"
	"sgprs/internal/workload"
)

// AxisKind identifies a sweep dimension of the run configuration.
type AxisKind int

// Axis kinds. AxisTasks is the classic figure abscissa (task count); the
// others sweep load shape (over-subscription, frame rate, release jitter,
// execution-demand variation, arrival intensity, the arrival process
// itself) or measurement length (horizon).
const (
	AxisTasks AxisKind = iota
	AxisOverSub
	AxisFPS
	AxisJitterMS
	AxisWorkVar
	AxisHorizonSec
	AxisRate
	AxisArrival
	AxisFaultRate
	AxisDevices
	AxisPlacement
)

// Kinds lists every axis kind in declaration order — the facade's
// AxisKinds and the CLIs' -list output build on it.
func Kinds() []AxisKind {
	return []AxisKind{
		AxisTasks, AxisOverSub, AxisFPS, AxisJitterMS,
		AxisWorkVar, AxisHorizonSec, AxisRate, AxisArrival,
		AxisFaultRate, AxisDevices, AxisPlacement,
	}
}

// String names the axis the way validation errors report it.
func (k AxisKind) String() string {
	switch k {
	case AxisTasks:
		return "task-count"
	case AxisOverSub:
		return "over-subscription"
	case AxisFPS:
		return "fps"
	case AxisJitterMS:
		return "release-jitter-ms"
	case AxisWorkVar:
		return "work-variation"
	case AxisHorizonSec:
		return "horizon-sec"
	case AxisRate:
		return "arrival-rate"
	case AxisArrival:
		return "arrival"
	case AxisFaultRate:
		return "fault-rate"
	case AxisDevices:
		return "devices"
	case AxisPlacement:
		return "placement"
	default:
		return fmt.Sprintf("axis(%d)", int(k))
	}
}

// key is the short form used in expanded variant labels ("sgprs@os=1.5")
// and -list summaries.
func (k AxisKind) key() string {
	switch k {
	case AxisTasks:
		return "n"
	case AxisOverSub:
		return "os"
	case AxisFPS:
		return "fps"
	case AxisJitterMS:
		return "jit"
	case AxisWorkVar:
		return "var"
	case AxisHorizonSec:
		return "h"
	case AxisRate:
		return "rate"
	case AxisArrival:
		return "arr"
	case AxisFaultRate:
		return "fr"
	case AxisDevices:
		return "dev"
	case AxisPlacement:
		return "pl"
	default:
		return k.String()
	}
}

// Axis is one typed sweep dimension: a kind plus its value list. Use the
// constructors (Tasks, OverSub, FPS, JitterMS, WorkVar, HorizonSec, Rate,
// Arrivals) — they document the units. Task counts are stored as float64
// like every other axis but must be integral; Compile rejects fractional
// values. The arrival axis alone is non-numeric: its points live in
// Arrivals and Values stays empty.
type Axis struct {
	Kind   AxisKind
	Values []float64
	// Arrivals are the points of an AxisArrival axis (exclusive with
	// Values).
	Arrivals []workload.Arrival
}

// len reports the number of sweep points on the axis.
func (a Axis) len() int {
	if a.Kind == AxisArrival {
		return len(a.Arrivals)
	}
	return len(a.Values)
}

// String renders the axis with its value range — "task-count=1..30",
// "arrival-rate=1,1.25,1.5", "arrival=poisson,bursty-1/1",
// "placement=bin-pack,load-steal" — the form `sgprs list` prints per
// experiment.
func (a Axis) String() string {
	if n := len(a.Values); n > 2 && a.Kind != AxisPlacement && contiguousInts(a.Values) {
		return fmt.Sprintf("%s=%g..%g", a.Kind, a.Values[0], a.Values[n-1])
	}
	parts := make([]string, a.len())
	for i := range parts {
		parts[i] = a.point(i)
	}
	return a.Kind.String() + "=" + strings.Join(parts, ",")
}

// point renders the axis's i-th point as expanded labels and String show
// it: an arrival process by name, a placement policy by its config-file
// spelling, any other value as a number.
func (a Axis) point(i int) string {
	if a.Kind == AxisArrival {
		if a.Arrivals[i] == nil {
			return "nil"
		}
		return a.Arrivals[i].Name()
	}
	if a.Kind == AxisPlacement {
		return cluster.Placement(a.Values[i]).String()
	}
	return strconv.FormatFloat(a.Values[i], 'g', -1, 64)
}

// contiguousInts reports whether vs is an ascending run of consecutive
// integers — collapsible to "lo..hi" in display.
func contiguousInts(vs []float64) bool {
	for i, v := range vs {
		if v != math.Trunc(v) {
			return false
		}
		if i > 0 && v != vs[i-1]+1 {
			return false
		}
	}
	return true
}

// Tasks is the task-count axis (sets RunConfig.NumTasks).
func Tasks(counts ...int) Axis {
	vs := make([]float64, len(counts))
	for i, n := range counts {
		vs[i] = float64(n)
	}
	return Axis{Kind: AxisTasks, Values: vs}
}

// TaskRange is Tasks over the inclusive range lo..hi.
func TaskRange(lo, hi int) Axis {
	var counts []int
	for n := lo; n <= hi; n++ {
		counts = append(counts, n)
	}
	return Tasks(counts...)
}

// OverSub sweeps the context pool's over-subscription level: each value
// rescales the variant's pool (keeping its context count) via
// sim.ContextPool.
func OverSub(levels ...float64) Axis { return Axis{Kind: AxisOverSub, Values: levels} }

// FPS sweeps the per-task frame rate.
func FPS(rates ...float64) Axis { return Axis{Kind: AxisFPS, Values: rates} }

// JitterMS sweeps the per-job uniform release-jitter bound, milliseconds.
func JitterMS(ms ...float64) Axis { return Axis{Kind: AxisJitterMS, Values: ms} }

// WorkVar sweeps the relative per-job execution-demand spread (WCET-overrun
// injection; 0.15 means ±15%).
func WorkVar(fracs ...float64) Axis { return Axis{Kind: AxisWorkVar, Values: fracs} }

// HorizonSec sweeps the simulated measurement horizon, seconds.
func HorizonSec(secs ...float64) Axis { return Axis{Kind: AxisHorizonSec, Values: secs} }

// Rate sweeps the arrival intensity: each value multiplies the variant's
// arrival process via workload.Arrival.Scale (1.0 = the template's own
// rate). The variant must carry a non-nil Arrival — set one on the
// template or add an Arrivals axis; Compile rejects the combination
// otherwise. Applied after the arrival axis, so the two compose.
func Rate(factors ...float64) Axis { return Axis{Kind: AxisRate, Values: factors} }

// Arrivals sweeps the arrival process itself — e.g. periodic vs Poisson vs
// bursty at matched average rate. Points are labeled by Arrival.Name.
func Arrivals(procs ...workload.Arrival) Axis { return Axis{Kind: AxisArrival, Arrivals: procs} }

// FaultRate sweeps the per-launch transient-fault probability: each value
// overwrites Faults.Transient.Prob on a deep copy of the variant's fault
// configuration (a nil Faults gains a minimal one whose recovery settings
// are the package defaults). Zero disables transient faults for that point.
func FaultRate(probs ...float64) Axis { return Axis{Kind: AxisFaultRate, Values: probs} }

// Devices sweeps the fleet size (sets RunConfig.Devices; 1 is a fleet of
// one, the paper's single GPU).
func Devices(counts ...int) Axis {
	vs := make([]float64, len(counts))
	for i, n := range counts {
		vs[i] = float64(n)
	}
	return Axis{Kind: AxisDevices, Values: vs}
}

// Placements sweeps the fleet chain-placement policy (fleet runs only; a
// placement axis crossed with a Devices axis must keep every device count
// above 1, since single-device runs reject fleet knobs).
func Placements(policies ...cluster.Placement) Axis {
	vs := make([]float64, len(policies))
	for i, p := range policies {
		vs[i] = float64(p)
	}
	return Axis{Kind: AxisPlacement, Values: vs}
}

// validate checks the axis's value ranges. Variant-dependent constraints
// (an over-subscription axis needs a context pool to rescale, a rate axis
// an arrival process) are checked during expansion, where the variant can
// be named.
func (a Axis) validate(spec string) error {
	if a.Kind == AxisArrival {
		if len(a.Values) > 0 {
			return fmt.Errorf("exp: spec %q: arrival axis carries numeric Values; its points go in Arrivals", spec)
		}
		if len(a.Arrivals) == 0 {
			return fmt.Errorf("exp: spec %q: empty %s axis", spec, a.Kind)
		}
		for i, p := range a.Arrivals {
			if p == nil {
				return fmt.Errorf("exp: spec %q: arrival axis point %d is nil", spec, i)
			}
			if err := p.Validate(); err != nil {
				return fmt.Errorf("exp: spec %q: arrival axis %s: %w", spec, p.Name(), err)
			}
		}
		return nil
	}
	if len(a.Arrivals) > 0 {
		return fmt.Errorf("exp: spec %q: %s axis carries Arrivals; only the arrival axis may", spec, a.Kind)
	}
	if len(a.Values) == 0 {
		return fmt.Errorf("exp: spec %q: empty %s axis", spec, a.Kind)
	}
	for _, v := range a.Values {
		bad := ""
		//sgprs:allow tagswitch — AxisArrival returned above: an arrival axis has no numeric values to validate
		switch a.Kind {
		case AxisTasks:
			if v != math.Trunc(v) || v < 1 {
				bad = "must be an integer >= 1"
			}
		case AxisOverSub, AxisFPS, AxisHorizonSec:
			if !(v > 0) {
				bad = "must be positive"
			}
		case AxisRate:
			if !(v > 0) || math.IsInf(v, 0) {
				bad = "must be positive and finite"
			}
		case AxisJitterMS, AxisWorkVar:
			if !(v >= 0) {
				bad = "must be non-negative"
			}
		case AxisFaultRate:
			if !(v >= 0 && v <= 1) {
				bad = "must be a probability in [0,1]"
			}
		case AxisDevices:
			if v != math.Trunc(v) || v < 1 {
				bad = "must be an integer device count >= 1"
			}
		case AxisPlacement:
			if v != math.Trunc(v) || v < float64(cluster.PlaceBinPack) || v > float64(cluster.PlaceLoadSteal) {
				bad = "must be a placement policy (0 bin-pack, 1 context-fit, 2 load-steal)"
			}
		default:
			bad = "unknown axis kind"
		}
		if bad != "" {
			return fmt.Errorf("exp: spec %q: %s axis value %v %s", spec, a.Kind, v, bad)
		}
	}
	return nil
}

// Spec is a declarative experiment: named variants (RunConfig templates)
// crossed with sweep axes. Compile expands the cross product into the
// runner's job list; Run executes it. Specs are plain data — copy one,
// tweak an axis, and register the result as a new experiment.
type Spec struct {
	// Name identifies the spec in the registry and in CLI -experiment
	// flags. Required by Register; Compile allows anonymous specs.
	Name string
	// Description is the one-line summary -list prints.
	Description string
	// Variants are the scheduler configurations to sweep. Each needs a
	// unique name (empty Name falls back to the Kind's name). Axis values
	// overwrite the corresponding template fields per grid cell.
	Variants []sim.RunConfig
	// Axes are the sweep dimensions, at most one per kind. The task-count
	// axis is always the innermost expansion (one result series per
	// variant × other-axis combination); if absent, each variant runs at
	// its template's NumTasks. An axis with no values is a compile error.
	Axes []Axis
}

// Clone returns an independent deep copy: mutating the copy's variants or
// axes never affects the original (or the registry's master copy).
func (s *Spec) Clone() *Spec {
	c := *s
	c.Variants = make([]sim.RunConfig, len(s.Variants))
	for i, v := range s.Variants {
		c.Variants[i] = v
		c.Variants[i].ContextSMs = append([]int(nil), v.ContextSMs...)
		c.Variants[i].Faults = v.Faults.Clone()
	}
	c.Axes = make([]Axis, len(s.Axes))
	for i, a := range s.Axes {
		c.Axes[i] = Axis{
			Kind:   a.Kind,
			Values: append([]float64(nil), a.Values...),
		}
		// Arrival implementations are immutable values (trace data is
		// shared read-only), so copying the slice is a deep copy.
		if len(a.Arrivals) > 0 {
			c.Axes[i].Arrivals = append([]workload.Arrival(nil), a.Arrivals...)
		}
	}
	return &c
}

// Compiled is a Spec expanded into executable form.
type Compiled struct {
	Spec *Spec
	// Jobs is the flat job list, grouped per expanded variant label with
	// the task axis innermost — the submission order the runner preserves
	// in its results.
	Jobs []runner.Job
	// Order lists the expanded variant labels (variant × non-task axis
	// combination) in submission order; with no non-task axes these are
	// the bare variant names.
	Order []string
	// TaskCounts is the task axis (or, without one, the distinct template
	// task counts) — the abscissa shared by every series.
	TaskCounts []int
}

// variantName labels a configuration the way sim.RunConfig.Normalize would.
func variantName(cfg sim.RunConfig) string {
	if cfg.Name != "" {
		return cfg.Name
	}
	return cfg.Kind.String()
}

// Compile expands the spec into the runner's job list, validating every
// grid cell: duplicate variant names, empty or out-of-range axes, and any
// configuration sim.RunConfig.Normalize would reject (zero task counts,
// horizon not exceeding warm-up, ...) are reported here — naming the spec,
// the expanded variant, and where applicable the axis — instead of failing
// inside a pool worker. The returned job configs are left un-normalized, so
// compiled specs execute exactly like hand-built job lists.
func (s *Spec) Compile() (*Compiled, error) {
	if len(s.Variants) == 0 {
		return nil, fmt.Errorf("exp: spec %q has no variants", s.Name)
	}
	seen := make(map[string]bool, len(s.Variants))
	for _, v := range s.Variants {
		name := variantName(v)
		if seen[name] {
			return nil, fmt.Errorf("exp: spec %q: duplicate variant name %q", s.Name, name)
		}
		seen[name] = true
	}

	var tasksAxis *Axis
	var sweep []Axis // non-task axes, in spec order
	kinds := make(map[AxisKind]bool, len(s.Axes))
	for i := range s.Axes {
		a := s.Axes[i]
		if kinds[a.Kind] {
			return nil, fmt.Errorf("exp: spec %q has two %s axes", s.Name, a.Kind)
		}
		kinds[a.Kind] = true
		if err := a.validate(s.Name); err != nil {
			return nil, err
		}
		if a.Kind == AxisTasks {
			tasksAxis = &a
		} else {
			sweep = append(sweep, a)
		}
	}

	c := &Compiled{Spec: s}
	if tasksAxis != nil {
		c.TaskCounts = make([]int, len(tasksAxis.Values))
		for i, v := range tasksAxis.Values {
			c.TaskCounts[i] = int(v)
		}
	} else {
		counts := map[int]bool{}
		for _, v := range s.Variants {
			if !counts[v.NumTasks] {
				counts[v.NumTasks] = true
				c.TaskCounts = append(c.TaskCounts, v.NumTasks)
			}
		}
	}

	// Expansion: variant-major, then the non-task axes as a mixed-radix
	// counter (first axis slowest), task counts innermost — one contiguous
	// job block per expanded label.
	combo := make([]int, len(sweep))
	for _, v := range s.Variants {
		for i := range combo {
			combo[i] = 0
		}
		for {
			label := variantName(v)
			if len(sweep) > 0 {
				parts := make([]string, len(sweep))
				for i, a := range sweep {
					parts[i] = a.Kind.key() + "=" + a.point(combo[i])
				}
				label += "@" + strings.Join(parts, ",")
			}
			cfg := v
			cfg.Name = label
			// Two passes: the rate axis scales cfg.Arrival, so it must
			// see the arrival axis's assignment first regardless of the
			// axes' declaration order.
			for pass := 0; pass < 2; pass++ {
				for i, a := range sweep {
					if (a.Kind == AxisRate) != (pass == 1) {
						continue
					}
					if err := applyAxis(&cfg, a, combo[i]); err != nil {
						return nil, fmt.Errorf("exp: spec %q variant %q: %w", s.Name, label, err)
					}
				}
			}
			counts := c.TaskCounts
			if tasksAxis == nil {
				counts = []int{cfg.NumTasks}
			}
			for _, n := range counts {
				jc := cfg
				jc.NumTasks = n
				// Dry-run the run-time validation on a copy: every
				// rejection a worker would hit surfaces here, with
				// the expanded label in the message.
				dry := jc
				if err := dry.Normalize(); err != nil {
					return nil, fmt.Errorf("exp: spec %q: %w", s.Name, err)
				}
				c.Jobs = append(c.Jobs, runner.Job{Variant: label, Tasks: n, Config: jc})
			}
			c.Order = append(c.Order, label)

			i := len(sweep) - 1
			for ; i >= 0; i-- {
				combo[i]++
				if combo[i] < sweep[i].len() {
					break
				}
				combo[i] = 0
			}
			if i < 0 {
				break
			}
		}
	}
	return c, nil
}

// applyAxis writes the axis's idx-th point into a run configuration. The
// switch is exhaustive over AxisKind (tagswitch enforces it): the arrival
// axis applies its process points, the task axis is the grid's own
// dimension and never routes through here, and every numeric axis reads
// a.Values[idx].
func applyAxis(cfg *sim.RunConfig, a Axis, idx int) error {
	switch a.Kind {
	case AxisArrival:
		cfg.Arrival = a.Arrivals[idx]
		return nil
	case AxisTasks:
		// The task count is the grid's own dimension: compile expands it
		// into per-cell jobs and never routes it through applyAxis.
		return fmt.Errorf("cannot apply %s axis", a.Kind)
	case AxisOverSub:
		v := a.Values[idx]
		np := len(cfg.ContextSMs)
		if np == 0 {
			return fmt.Errorf("%s axis needs a context pool on the variant template", a.Kind)
		}
		total := cfg.GPU.TotalSMs
		if total == 0 {
			total = speedup.DeviceSMs
		}
		if total < 0 {
			return fmt.Errorf("%s axis cannot rescale a device with %d SMs", a.Kind, total)
		}
		cfg.ContextSMs = sim.ContextPool(np, v, total)
	case AxisFPS:
		cfg.FPS = a.Values[idx]
	case AxisJitterMS:
		cfg.ReleaseJitterMS = a.Values[idx]
	case AxisWorkVar:
		cfg.WorkVariation = a.Values[idx]
	case AxisHorizonSec:
		cfg.HorizonSec = a.Values[idx]
	case AxisRate:
		if cfg.Arrival == nil {
			return fmt.Errorf("%s axis needs an arrival process: pass sgprs sweep -arrival or -trace, or give the experiment file an \"arrival\" block", a.Kind)
		}
		cfg.Arrival = cfg.Arrival.Scale(a.Values[idx])
	case AxisFaultRate:
		// cfg is a shallow copy of the variant template, so the Faults
		// pointer aliases it (and every other grid cell): deep-copy
		// before writing the cell's probability.
		fc := cfg.Faults.Clone()
		if fc == nil {
			fc = &fault.Config{}
		}
		if fc.Transient == nil {
			fc.Transient = &fault.Transient{}
		}
		fc.Transient.Prob = a.Values[idx]
		cfg.Faults = fc
	case AxisDevices:
		cfg.Devices = int(a.Values[idx])
	case AxisPlacement:
		cfg.Placement = cluster.Placement(a.Values[idx])
	default:
		return fmt.Errorf("cannot apply %s axis", a.Kind)
	}
	return nil
}
