// Package config loads and saves experiment configurations as JSON, so
// sweeps are reproducible artifacts rather than command-line folklore.
package config

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// Normalize fills the defaults only a file has (the 1..30 task ramp, seed
// 1, the paper's four variants) and checks what only the file knows: the
// scenario, and each variant's name and its pool or over-subscription level.
// What a run checks, exp.Compile's dry run of sim.RunConfig.Normalize does.
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
	if e.Seed == 0 {
		e.Seed = 1
	}
	if e.Scenario == 0 && len(e.Variants) == 0 {
		return errors.New("config: the experiment needs a scenario or variants")
	}
	if len(e.Variants) == 0 {
		for _, v := range sim.ScenarioVariants() {
			e.Variants = append(e.Variants, Variant{Kind: v.Kind.String(), Name: v.Name, OS: v.OS})
		}
	}
	for i, v := range e.Variants {
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
	}
	return nil
}

// Spec compiles a normalized experiment (as Load returns it) into an
// exp.Spec: one variant per configuration, its pool its own context_sms or
// its scenario's at its over-subscription level, with every non-zero field
// written over them by Overlay, the code that applies the sweep flags.
func (e *Experiment) Spec(name string) (*exp.Spec, error) {
	s := &exp.Spec{Name: name, Description: "JSON experiment file"}
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
			pool = sim.ContextPool(np, os, speedup.DeviceSMs)
		}
		s.Variants = append(s.Variants, sim.RunConfig{Kind: kind, Name: v.Name, ContextSMs: pool, NumTasks: 1})
	}
	set := map[string]bool{
		"tasks": len(e.TaskCounts) > 0, "rate": len(e.RateFactors) > 0,
		"horizon": e.HorizonSec != 0, "warmup": e.WarmUpSec != 0, "seed": e.Seed != 0,
		"fps": e.FPS != 0, "stages": e.Stages != 0, "stagger": e.Stagger,
		"slo": e.SLOMS != 0, "faults": e.Faults != nil,
		"placement": e.Placement != "", "failover": e.Failover != "", "admit": e.AdmitCeiling != 0,
	}
	// JSON keys where they differ from the field's flag name.
	keys := map[string]string{"tasks": "task_counts", "rate": "rate_factors", "horizon": "horizon_sec",
		"warmup": "warmup_sec", "slo": "slo_ms", "admit": "admit_ceiling"}
	typed := func(field string) string {
		if !set[field] {
			return ""
		}
		return strconv.Quote(cmp.Or(keys[field], field))
	}
	if err := e.Overlay(s, typed); err != nil {
		return nil, err
	}
	return s, nil
}

// Overlay writes the experiment's fields into spec's variants and axes,
// each only if it is set: name returns the name the user gave a set field,
// "" for an unset one — the sweep's flags named on its command line, Spec's
// JSON keys of a file's non-zero fields — and errors quote that name.
// Fields go by flag name
// (tasks, rate, horizon, warmup, seed, fps, stages, stagger, slo, faults,
// placement, failover, admit); a non-nil arrival and non-zero devices always
// apply. Devices 1 collapses a fleet spec to single-device runs, clearing
// its fleet-only settings and dropping a placement axis, and rejects a set
// placement, failover, admit or device fault. A tasks or rate list replaces
// the spec's axis of that kind or adds one; horizon, devices and placement
// collapse an axis of their kind to their value, which it would otherwise
// re-apply per cell.
func (e *Experiment) Overlay(spec *exp.Spec, name func(field string) string) error {
	set := func(field string) bool { return name(field) != "" }
	var arrival workload.Arrival
	if e.Arrival != nil {
		var err error
		if arrival, err = e.Arrival.Build(); err != nil {
			return err
		}
	}
	placement, perr := cluster.ParsePlacement(e.Placement)
	failover, ferr := rt.ParseFailoverPolicy(e.Failover)
	if err := errors.Join(perr, ferr); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if e.Devices == 1 {
		for _, field := range []string{"placement", "failover", "admit"} {
			if n := name(field); n != "" {
				return fmt.Errorf("config: %s needs a fleet, but devices 1 forces single-device runs", n)
			}
		}
		if n := name("faults"); n != "" && e.Faults != nil && len(e.Faults.DeviceFaults) > 0 {
			return fmt.Errorf("config: device_faults in %s need a fleet, but devices 1 forces single-device runs", n)
		}
	}
	// Rate before tasks, so a spec without either gets its task axis last.
	if set("rate") {
		setAxis(spec, exp.Rate(e.RateFactors...))
	}
	if set("tasks") {
		setAxis(spec, exp.Tasks(e.TaskCounts...))
	}
	axes := spec.Axes[:0]
	for _, a := range spec.Axes {
		switch {
		case a.Kind == exp.AxisHorizonSec && set("horizon"):
			a = exp.HorizonSec(e.HorizonSec)
		case a.Kind == exp.AxisDevices && e.Devices != 0:
			a = exp.Devices(e.Devices)
		case a.Kind == exp.AxisPlacement && e.Devices == 1:
			continue
		case a.Kind == exp.AxisPlacement && set("placement"):
			a = exp.Placements(placement)
		}
		axes = append(axes, a)
	}
	spec.Axes = axes
	for i := range spec.Variants {
		v := &spec.Variants[i]
		if set("horizon") {
			v.HorizonSec = e.HorizonSec
		}
		if set("warmup") {
			v.WarmUpSec = e.WarmUpSec
		}
		if set("seed") {
			v.Seed = e.Seed
		}
		if set("fps") {
			v.FPS = e.FPS
		}
		if set("stages") {
			v.Stages = e.Stages
		}
		if set("stagger") {
			v.Stagger = e.Stagger
		}
		if arrival != nil {
			v.Arrival = arrival
		}
		if set("slo") {
			v.SLOMS = e.SLOMS
		}
		if set("faults") {
			v.Faults = e.Faults.Clone()
		}
		if e.Devices != 0 {
			v.Devices = e.Devices
		}
		if e.Devices == 1 {
			v.Placement, v.Failover, v.AdmitCeiling = 0, 0, 0
			if v.Faults = v.Faults.Clone(); v.Faults != nil {
				v.Faults.DeviceFaults = nil
			}
			continue
		}
		if set("placement") {
			v.Placement = placement
		}
		if set("failover") {
			v.Failover = failover
		}
		if set("admit") {
			v.AdmitCeiling = e.AdmitCeiling
		}
	}
	return nil
}

// setAxis replaces the spec's axis of a's kind, or appends a.
func setAxis(spec *exp.Spec, a exp.Axis) {
	for i := range spec.Axes {
		if spec.Axes[i].Kind == a.Kind {
			spec.Axes[i] = a
			return
		}
	}
	spec.Axes = append(spec.Axes, a)
}

// Load reads an Experiment from a JSON file and normalizes it. A key the
// Experiment has no field for fails, named.
func Load(path string) (*Experiment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	var e Experiment
	if err := decodeStrict(data, &e); err != nil {
		return nil, fmt.Errorf("config: parse %s: %w", path, err)
	}
	if err := e.Normalize(); err != nil {
		return nil, err
	}
	return &e, nil
}

// decodeStrict decodes one JSON value into v, failing on a key v has no
// field for (json.Unmarshal would drop it without a word) and on anything
// after the value.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil && dec.Decode(new(json.RawMessage)) != io.EOF {
		err = errors.New("data after the JSON value")
	}
	return err
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
	if err := decodeStrict(data, &fc); err != nil {
		return nil, fmt.Errorf("faults config: %w", err)
	}
	if err := fc.Validate(); err != nil {
		return nil, err
	}
	return &fc, nil
}
