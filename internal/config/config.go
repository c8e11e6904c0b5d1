// Package config loads and saves experiment configurations as JSON, so
// sweeps are reproducible artifacts rather than command-line folklore.
package config

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sgprs/internal/cluster"
	"sgprs/internal/exp"
	"sgprs/internal/fault"
	"sgprs/internal/rt"
	"sgprs/internal/sim"
	"sgprs/internal/speedup"
	"sgprs/internal/workload"
)

// Experiment is the serialisable description of a figure regeneration run.
type Experiment struct {
	// Scenario is 1 (two contexts) or 2 (three contexts); 0 means the
	// Variants' explicit context pools are used instead.
	Scenario int `json:"scenario,omitempty"`
	// TaskCounts is the sweep axis (defaults to 1..30).
	TaskCounts []int `json:"task_counts,omitempty"`
	// HorizonSec is the simulated duration per point (default 10).
	HorizonSec float64 `json:"horizon_sec,omitempty"`
	// WarmUpSec is excluded from metrics (default 1).
	WarmUpSec float64 `json:"warmup_sec,omitempty"`
	// Seed drives every stochastic element (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// FPS is the per-task frame rate (default 30).
	FPS float64 `json:"fps,omitempty"`
	// Stages is the per-task stage count (default 6).
	Stages int `json:"stages,omitempty"`
	// Stagger spreads task offsets across the period instead of the
	// paper's synchronous releases.
	Stagger bool `json:"stagger,omitempty"`
	// Variants lists the scheduler configurations to sweep; empty means
	// the paper's four (naive + SGPRS at 1.0/1.5/2.0x).
	Variants []Variant `json:"variants,omitempty"`
	// Arrival switches every variant to an open-loop arrival process;
	// omitted keeps the classic closed-loop periodic releases.
	Arrival *Arrival `json:"arrival,omitempty"`
	// SLOMS is the response-time objective in milliseconds (0 = none).
	SLOMS float64 `json:"slo_ms,omitempty"`
	// RateFactors adds an arrival-rate axis multiplying the arrival
	// intensity per sweep cell; requires Arrival.
	RateFactors []float64 `json:"rate_factors,omitempty"`
	// Faults configures the fault-injection layer for every variant (WCET
	// overruns, transient kernel faults, SM degradation windows — DESIGN.md
	// §13); omitted keeps the fault-free dynamics. The block serialises
	// with fault.Config's own JSON tags.
	Faults *fault.Config `json:"faults,omitempty"`
	// Devices sizes the fleet (DESIGN.md §15); 0 or 1 is a fleet of one,
	// the classic single-GPU run. Device-level failure windows ride in the
	// faults block's device_faults list.
	Devices int `json:"devices,omitempty"`
	// Placement is the fleet chain-homing policy: "bin-pack" (default),
	// "context-fit", or "load-steal". Requires devices > 1.
	Placement string `json:"placement,omitempty"`
	// Failover is the device-crash policy: "migrate" (default), "retry",
	// or "shed". Requires devices > 1.
	Failover string `json:"failover,omitempty"`
	// AdmitCeiling load-sheds new releases while surviving fleet capacity
	// is below this utilization fraction (0 disables admission control).
	AdmitCeiling float64 `json:"admit_ceiling,omitempty"`
}

// Arrival is the serialisable arrival-process description; Build translates
// it into the workload layer's process value.
type Arrival struct {
	// Kind selects the process: "periodic", "poisson", "bursty", "mmpp",
	// "diurnal", or "trace".
	Kind string `json:"kind"`
	// Rate is the per-task arrival rate, arrivals per second (periodic:
	// a multiple of the natural rate). 0 means each task's natural rate.
	Rate float64 `json:"rate,omitempty"`
	// OnSec and OffSec are the bursty window lengths, seconds.
	OnSec  float64 `json:"on_sec,omitempty"`
	OffSec float64 `json:"off_sec,omitempty"`
	// RatesPerSec and MeanSojournSec are the MMPP state lists.
	RatesPerSec    []float64 `json:"rates_per_sec,omitempty"`
	MeanSojournSec []float64 `json:"mean_sojourn_sec,omitempty"`
	// PeriodSec, MinRate, and MaxRate shape the diurnal curve.
	PeriodSec float64 `json:"period_sec,omitempty"`
	MinRate   float64 `json:"min_rate,omitempty"`
	MaxRate   float64 `json:"max_rate,omitempty"`
	// Trace is the trace file path (CSV or JSON) for kind "trace".
	Trace string `json:"trace,omitempty"`
	// Speed is the trace replay speed (0 = as recorded).
	Speed float64 `json:"speed,omitempty"`
}

// Build translates the description into a workload arrival process,
// loading the trace file for kind "trace".
func (a *Arrival) Build() (workload.Arrival, error) {
	var p workload.Arrival
	switch a.Kind {
	case "periodic":
		p = workload.Periodic{Rate: a.Rate}
	case "poisson":
		p = workload.Poisson{Rate: a.Rate}
	case "bursty":
		p = workload.Bursty{OnSec: a.OnSec, OffSec: a.OffSec, Rate: a.Rate}
	case "mmpp":
		p = workload.MMPP{RatesPerSec: a.RatesPerSec, MeanSojournSec: a.MeanSojournSec}
	case "diurnal":
		p = workload.Diurnal{PeriodSec: a.PeriodSec, MinRate: a.MinRate, MaxRate: a.MaxRate}
	case "trace":
		data, err := workload.LoadTrace(a.Trace)
		if err != nil {
			return nil, err
		}
		p = workload.Trace{Data: data, Speed: a.Speed}
	default:
		return nil, fmt.Errorf("config: unknown arrival kind %q (want periodic, poisson, bursty, mmpp, diurnal, or trace)", a.Kind)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("config: arrival: %w", err)
	}
	return p, nil
}

// Variant is one serialisable scheduler configuration.
type Variant struct {
	Kind string  `json:"kind"` // "sgprs" or "naive"
	Name string  `json:"name"`
	OS   float64 `json:"os,omitempty"` // over-subscription level
	// ContextSMs overrides the scenario-derived pool when non-empty.
	ContextSMs []int `json:"context_sms,omitempty"`
}

// Normalize fills defaults and validates.
func (e *Experiment) Normalize() error {
	if e.Scenario != 0 {
		if _, err := sim.ScenarioContexts(e.Scenario); err != nil {
			return err
		}
	}
	if len(e.TaskCounts) == 0 {
		for n := 1; n <= 30; n++ {
			e.TaskCounts = append(e.TaskCounts, n)
		}
	}
	for _, n := range e.TaskCounts {
		if n <= 0 {
			return fmt.Errorf("config: task count %d must be positive", n)
		}
	}
	if e.HorizonSec == 0 {
		e.HorizonSec = 10
	}
	if e.WarmUpSec == 0 {
		e.WarmUpSec = 1
	}
	if e.HorizonSec <= e.WarmUpSec {
		return fmt.Errorf("config: horizon %vs must exceed warm-up %vs", e.HorizonSec, e.WarmUpSec)
	}
	if e.Seed == 0 {
		e.Seed = 1
	}
	if e.FPS == 0 {
		e.FPS = 30
	}
	if e.Stages == 0 {
		e.Stages = 6
	}
	if len(e.Variants) == 0 {
		for _, v := range sim.ScenarioVariants() {
			e.Variants = append(e.Variants, Variant{Kind: v.Kind.String(), Name: v.Name, OS: v.OS})
		}
	}
	for i := range e.Variants {
		v := &e.Variants[i]
		if _, err := sim.ParseKind(v.Kind); err != nil {
			return fmt.Errorf("config: variant %q: %w", v.Name, err)
		}
		if v.Name == "" {
			return fmt.Errorf("config: variant %d needs a name", i)
		}
		if len(v.ContextSMs) == 0 {
			if e.Scenario == 0 {
				return fmt.Errorf("config: variant %q needs context_sms when no scenario is set", v.Name)
			}
			if v.OS <= 0 {
				return fmt.Errorf("config: variant %q needs an over-subscription level", v.Name)
			}
		}
		for j, sms := range v.ContextSMs {
			if sms < 1 || sms > speedup.DeviceSMs {
				return fmt.Errorf("config: variant %q context_sms[%d] = %d outside [1, %d], the device's SM count", v.Name, j, sms, speedup.DeviceSMs)
			}
		}
	}
	if e.SLOMS < 0 {
		return fmt.Errorf("config: slo_ms %v must be non-negative", e.SLOMS)
	}
	if len(e.RateFactors) > 0 && e.Arrival == nil {
		return fmt.Errorf("config: rate_factors need an arrival block")
	}
	if err := e.Faults.Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if e.Devices < 0 {
		return fmt.Errorf("config: devices %d must be non-negative", e.Devices)
	}
	if _, _, err := e.FleetPolicies(); err != nil {
		return err
	}
	if e.Devices <= 1 && (e.Placement != "" || e.Failover != "" || e.AdmitCeiling != 0) {
		return fmt.Errorf("config: placement/failover/admit_ceiling need devices > 1")
	}
	return nil
}

// RunConfigs expands the experiment into one sim.RunConfig per variant (task
// count left to the sweep driver).
func (e *Experiment) RunConfigs() ([]sim.RunConfig, error) {
	if err := e.Normalize(); err != nil {
		return nil, err
	}
	var arrival workload.Arrival
	if e.Arrival != nil {
		p, err := e.Arrival.Build()
		if err != nil {
			return nil, err
		}
		arrival = p
	}
	placement, failover, err := e.FleetPolicies()
	if err != nil {
		return nil, err
	}
	var out []sim.RunConfig
	for _, v := range e.Variants {
		kind, err := sim.ParseKind(v.Kind)
		if err != nil {
			return nil, fmt.Errorf("config: variant %q: %w", v.Name, err)
		}
		pool := v.ContextSMs
		if len(pool) == 0 {
			np, err := sim.ScenarioContexts(e.Scenario)
			if err != nil {
				return nil, err
			}
			os := v.OS
			if kind == sim.KindNaive {
				os = 1.0 // the naive baseline tiles the device
			}
			pool = sim.ContextPool(np, os, 68)
		}
		out = append(out, sim.RunConfig{
			Kind:         kind,
			Name:         v.Name,
			ContextSMs:   pool,
			NumTasks:     1,
			FPS:          e.FPS,
			Stages:       e.Stages,
			Stagger:      e.Stagger,
			HorizonSec:   e.HorizonSec,
			WarmUpSec:    e.WarmUpSec,
			Seed:         e.Seed,
			Arrival:      arrival,
			SLOMS:        e.SLOMS,
			Faults:       e.Faults.Clone(),
			Devices:      e.Devices,
			Placement:    placement,
			Failover:     failover,
			AdmitCeiling: e.AdmitCeiling,
		})
	}
	return out, nil
}

// FleetPolicies parses the placement and failover names; empty names are
// the defaults.
func (e *Experiment) FleetPolicies() (cluster.Placement, rt.FailoverPolicy, error) {
	placement, err := cluster.ParsePlacement(e.Placement)
	if err != nil {
		return 0, 0, fmt.Errorf("config: %w", err)
	}
	failover, err := rt.ParseFailoverPolicy(e.Failover)
	if err != nil {
		return 0, 0, fmt.Errorf("config: %w", err)
	}
	return placement, failover, nil
}

// Spec compiles the serialised experiment into a declarative exp.Spec (one
// variant per configuration, the task counts as the sweep axis), so JSON
// experiment files run through the same spec pipeline as registry entries.
func (e *Experiment) Spec(name string) (*exp.Spec, error) {
	bases, err := e.RunConfigs()
	if err != nil {
		return nil, err
	}
	s := exp.Grid(bases, e.TaskCounts)
	s.Name = name
	s.Description = "JSON experiment file"
	if len(e.RateFactors) > 0 {
		// Prepend so the task axis stays innermost (Grid's contract).
		s.Axes = append([]exp.Axis{exp.Rate(e.RateFactors...)}, s.Axes...)
	}
	return s, nil
}

// Load reads an Experiment from a JSON file.
func Load(path string) (*Experiment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	var e Experiment
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("config: parse %s: %w", path, err)
	}
	if err := e.Normalize(); err != nil {
		return nil, err
	}
	return &e, nil
}

// ParseInts parses a list flag of integers in [lo, hi]: comma-separated
// ("34,34") or an inclusive range ("1..30"). A bad element fails as
// `invalid <what> "<element>"`, a bad range as `invalid range "<s>"`.
func ParseInts(s, what string, lo, hi int) ([]int, error) {
	if a, b, ok := strings.Cut(s, ".."); ok {
		first, err1 := strconv.Atoi(strings.TrimSpace(a))
		last, err2 := strconv.Atoi(strings.TrimSpace(b))
		if err1 != nil || err2 != nil || first < lo || last < first || last > hi {
			return nil, fmt.Errorf("invalid range %q", s)
		}
		var out []int
		for n := first; n <= last; n++ {
			out = append(out, n)
		}
		return out, nil
	}
	return parseList(s, what, func(part string) (int, bool) {
		n, err := strconv.Atoi(part)
		return n, err == nil && n >= lo && n <= hi
	})
}

// ParseFloats parses a comma-separated list flag of floats ("1,1.25,1.5"),
// failing on a bad element as `invalid <what> "<element>"`.
func ParseFloats(s, what string) ([]float64, error) {
	return parseList(s, what, func(part string) (float64, bool) {
		v, err := strconv.ParseFloat(part, 64)
		return v, err == nil
	})
}

func parseList[T any](s, what string, parse func(string) (T, bool)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, ok := parse(strings.TrimSpace(part))
		if !ok {
			return nil, fmt.Errorf("invalid %s %q", what, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseFaults reads a -faults flag — inline JSON (recognised by its leading
// '{') or a file path — into a validated fault configuration; empty means
// none.
func ParseFaults(arg string) (*fault.Config, error) {
	if arg == "" {
		return nil, nil
	}
	data := []byte(arg)
	if !strings.HasPrefix(strings.TrimSpace(arg), "{") {
		b, err := os.ReadFile(arg)
		if err != nil {
			return nil, fmt.Errorf("faults config: %w", err)
		}
		data = b
	}
	var fc fault.Config
	if err := json.Unmarshal(data, &fc); err != nil {
		return nil, fmt.Errorf("faults config: %w", err)
	}
	if err := fc.Validate(); err != nil {
		return nil, err
	}
	return &fc, nil
}
