// Package sim wires workload, schedulers, GPU model, and metrics into
// runnable experiments: one RunConfig in, one Result out. Sweeps over many
// configurations are exp.Spec grids executed by internal/runner; this
// package supplies the paper scenarios' building blocks (ScenarioVariants,
// ScenarioContexts, ContextPool).
package sim

import (
	"fmt"
	"math"
	"sync"

	"sgprs/internal/cluster"
	"sgprs/internal/core"
	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/fault"
	"sgprs/internal/gpu"
	"sgprs/internal/memo"
	"sgprs/internal/metrics"
	"sgprs/internal/naive"
	"sgprs/internal/rt"
	"sgprs/internal/sched"
	"sgprs/internal/speedup"
	"sgprs/internal/workload"
)

// Kind selects the scheduler implementation.
type Kind int

// Scheduler kinds.
const (
	KindSGPRS Kind = iota
	KindNaive
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindSGPRS:
		return "sgprs"
	case KindNaive:
		return "naive"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind resolves a scheduler name, the inverse of Kind.String.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "sgprs":
		return KindSGPRS, nil
	case "naive":
		return KindNaive, nil
	}
	return 0, fmt.Errorf("unknown scheduler %q", name)
}

// ReferenceLatencyMS is the calibrated full-device ResNet18 inference
// latency. It pins simulated time to the scale implied by the paper's
// saturation throughput (DESIGN.md §2).
const ReferenceLatencyMS = 1.40

// RunConfig describes one simulation run.
type RunConfig struct {
	Kind Kind
	Name string
	// ContextSMs is the context pool (SGPRS) or static partitioning
	// (naive).
	ContextSMs []int

	// Workload.
	NumTasks int
	FPS      float64
	Stages   int
	Stagger  bool
	// ReleaseJitterMS bounds uniform sporadic release jitter per job.
	ReleaseJitterMS float64
	// WorkVariation is the relative per-job execution-demand spread
	// (WCET-overrun injection); see workload.TaskSpec.
	WorkVariation float64
	// Arrival selects the release process driving every task (open-loop
	// traffic and trace replay; see workload.Arrival). Nil means
	// workload.Periodic{}: the paper's closed-loop periodic releases, plus
	// ReleaseJitterMS.
	Arrival workload.Arrival
	// SLOMS is a response-time service-level objective, milliseconds;
	// when positive, Summary.SLOHitRate reports the fraction of released
	// jobs completing within it.
	SLOMS float64

	// Faults configures the fault-injection layer (DESIGN.md §13): WCET
	// overruns, transient kernel faults with recovery policies, and SM
	// degradation windows. Nil keeps today's fault-free dynamics — pinned
	// bit-identical by the sim fault-equivalence tests. A fault-injected
	// run is never eligible for steady-state fast-forward.
	Faults *fault.Config

	// Fleet (DESIGN.md §15): every run executes on Devices identical devices
	// behind a cluster dispatcher — one scheduler instance per device,
	// chains homed by Placement, device crashes (Faults' DeviceFaults)
	// survived under Failover with an optional AdmitCeiling admission
	// controller. Devices 0 or 1 is a fleet of one: the paper's single GPU,
	// with every fleet option zero and Summary.Fleet left zero; only a
	// fleet of one is fast-forward eligible.
	Devices int
	// Placement selects the chain-homing policy (fleet runs only).
	Placement cluster.Placement
	// Failover selects the device-loss policy (fleet runs only);
	// rt.FailoverDefault means migrate.
	Failover rt.FailoverPolicy
	// AdmitCeiling is the surviving-capacity fraction below which the fleet
	// sheds the lowest-priority chains' releases (0 disables; fleet only).
	AdmitCeiling float64

	// Horizon and warm-up, simulated seconds.
	HorizonSec, WarmUpSec float64

	Seed uint64

	// GPU overrides; zero value means gpu.DefaultConfig(). A non-zero value
	// is used as given, so it must set TotalSMs.
	GPU gpu.Config

	// SGPRS options (ablations).
	DisableMediumPromotion bool
	DisableLateDrop        bool
	FlattenPriorities      bool

	// Observer, when non-nil, is a hook on every device, installed ahead
	// of any fault injector (e.g. a trace.Recorder). It must not change the
	// run.
	Observer gpu.Hook
}

// Normalize fills defaults and validates. Zero values default; negative
// values for quantities that must be positive are rejected rather than
// defaulted — a negative FPS or stage count is always a caller bug, and
// letting it flow into the workload generator produces panics far from the
// mistake.
func (c *RunConfig) Normalize() error {
	if c.Name == "" {
		c.Name = c.Kind.String()
	}
	if len(c.ContextSMs) == 0 {
		return fmt.Errorf("sim: run %q has no contexts", c.Name)
	}
	if c.NumTasks <= 0 {
		return fmt.Errorf("sim: run %q needs at least one task", c.Name)
	}
	// NaN compares false against every bound, so the sign checks below
	// would wave NaN through; reject non-finite values first, with the
	// field named like every other rejection.
	for _, f := range []struct {
		field string
		v     float64
	}{
		{"FPS", c.FPS},
		{"release jitter", c.ReleaseJitterMS},
		{"work variation", c.WorkVariation},
		{"horizon", c.HorizonSec},
		{"warm-up", c.WarmUpSec},
		{"SLO", c.SLOMS},
		{"admission ceiling", c.AdmitCeiling},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("sim: run %q %s %v must be finite", c.Name, f.field, f.v)
		}
	}
	if c.FPS < 0 {
		return fmt.Errorf("sim: run %q FPS %v must be non-negative", c.Name, c.FPS)
	}
	if c.Stages < 0 {
		return fmt.Errorf("sim: run %q stage count %d must be non-negative", c.Name, c.Stages)
	}
	if c.WarmUpSec < 0 {
		return fmt.Errorf("sim: run %q warm-up %vs must be non-negative", c.Name, c.WarmUpSec)
	}
	if c.ReleaseJitterMS < 0 {
		return fmt.Errorf("sim: run %q release jitter %vms must be non-negative", c.Name, c.ReleaseJitterMS)
	}
	if c.WorkVariation < 0 {
		return fmt.Errorf("sim: run %q work variation %v must be non-negative", c.Name, c.WorkVariation)
	}
	if c.SLOMS < 0 {
		return fmt.Errorf("sim: run %q SLO %vms must be non-negative", c.Name, c.SLOMS)
	}
	if c.Arrival != nil {
		if err := c.Arrival.Validate(); err != nil {
			return fmt.Errorf("sim: run %q arrival %s: %w", c.Name, c.Arrival.Name(), err)
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("sim: run %q faults: %w", c.Name, err)
		}
	}
	if c.Devices < 0 {
		return fmt.Errorf("sim: run %q device count %d must be non-negative", c.Name, c.Devices)
	}
	if c.Devices <= 1 {
		// Fleet knobs on a single-device run are a config mistake, not a
		// no-op: reject rather than silently ignoring them, so a fleet of
		// one keeps a constant dispatcher (what lets it fast-forward,
		// DESIGN.md §12).
		if c.Placement != 0 || c.Failover != 0 || c.AdmitCeiling != 0 {
			return fmt.Errorf("sim: run %q sets fleet options (placement/failover/admission ceiling) on a single device; set Devices > 1", c.Name)
		}
	} else {
		if c.Placement < cluster.PlaceBinPack || c.Placement > cluster.PlaceLoadSteal {
			return fmt.Errorf("sim: run %q unknown placement policy %d", c.Name, int(c.Placement))
		}
		if c.Failover < rt.FailoverDefault || c.Failover > rt.FailoverShed {
			return fmt.Errorf("sim: run %q unknown failover policy %d", c.Name, int(c.Failover))
		}
		if c.AdmitCeiling < 0 || c.AdmitCeiling > 1 {
			return fmt.Errorf("sim: run %q admission ceiling %v outside [0, 1]", c.Name, c.AdmitCeiling)
		}
	}
	if c.FPS == 0 {
		c.FPS = 30
	}
	if c.Stages == 0 {
		c.Stages = 6
	}
	if c.HorizonSec == 0 {
		c.HorizonSec = 10
	}
	if c.WarmUpSec == 0 {
		c.WarmUpSec = 1
	}
	if c.HorizonSec <= c.WarmUpSec {
		return fmt.Errorf("sim: run %q horizon %vs must exceed warm-up %vs", c.Name, c.HorizonSec, c.WarmUpSec)
	}
	// The simulated clock counts int64 nanoseconds: des.FromSeconds
	// saturates at des.Never beyond ~292 years, where nothing can be
	// scheduled, so such a horizon (and with it any warm-up, which is
	// shorter) or release period is rejected here, named, instead of
	// failing deep inside the run.
	if des.FromSeconds(c.HorizonSec) == des.Never {
		return fmt.Errorf("sim: run %q horizon %vs exceeds the simulated clock's range", c.Name, c.HorizonSec)
	}
	if des.FromSeconds(1/c.FPS) == des.Never {
		return fmt.Errorf("sim: run %q FPS %v gives a release period of %vs, beyond the simulated clock's range", c.Name, c.FPS, 1/c.FPS)
	}
	// Jobs are counted and indexed by int, 32 bits on some platforms, so
	// the release count — tasks × FPS × rate factor × horizon, plus each
	// task's release at its offset — must fit one. Only periodic runs
	// fast-forward, so only they reach such counts in practice; other
	// arrival processes are checked at the tasks' natural rate.
	rate := 1.0
	if p, ok := c.Arrival.(workload.Periodic); ok && p.Rate != 0 {
		rate = p.Rate
	}
	if n := float64(c.NumTasks) * (float64(c.FPS*rate*c.HorizonSec) + 1); n >= math.MaxInt {
		return fmt.Errorf("sim: run %q horizon %vs releases %.4g jobs, more than an int counts (%d)", c.Name, c.HorizonSec, n, math.MaxInt)
	}
	if c.GPU.TotalSMs == 0 {
		if c.GPU != (gpu.Config{}) {
			return fmt.Errorf("sim: run %q sets GPU fields but GPU.TotalSMs 0; set it, or leave GPU zero for the default device", c.Name)
		}
		g := gpu.DefaultConfig()
		g.Seed = c.Seed + 1
		c.GPU = g
	}
	for i, sms := range c.ContextSMs {
		if sms < 1 || sms > c.GPU.TotalSMs {
			return fmt.Errorf("sim: run %q ContextSMs[%d] = %d outside [1, %d], the device's SM count", c.Name, i, sms, c.GPU.TotalSMs)
		}
	}
	// Fault windows are checked against the actual device configuration here
	// — after GPU defaulting, when the SM count is known — so an impossible
	// window fails fast as a config error instead of deep inside the run.
	if c.Faults != nil {
		for i, w := range c.Faults.Degradation {
			if w.SMs > c.GPU.TotalSMs {
				return fmt.Errorf("sim: run %q degradation window %d wants %d SMs, device has %d", c.Name, i, w.SMs, c.GPU.TotalSMs)
			}
		}
		if len(c.Faults.DeviceFaults) > 0 && c.Devices <= 1 {
			return fmt.Errorf("sim: run %q injects device faults on a single device; set Devices > 1", c.Name)
		}
		for i, df := range c.Faults.DeviceFaults {
			if df.Device >= c.Devices {
				return fmt.Errorf("sim: run %q device fault %d targets device %d, fleet has %d devices", c.Name, i, df.Device, c.Devices)
			}
		}
	}
	return nil
}

// Result is one run's outcome.
type Result struct {
	Name    string
	Tasks   int
	Summary metrics.Summary
	// DeviceUtilization is the mean effective-SM utilisation over the run.
	DeviceUtilization float64
	// EnergyJoules and AvgPowerW come from the device's linear power
	// model (gpu.DefaultPowerModel) over the whole horizon.
	EnergyJoules float64
	AvgPowerW    float64
	// FPSPerWatt is the run's efficiency: total FPS over average power.
	FPSPerWatt float64
	// FastForward reports the steady-state fast-forward layer's activity
	// (all-zero when it never engaged: an ineligible run).
	FastForward metrics.FFStats
}

// ReferenceGraph builds the calibrated ResNet18 benchmark graph.
func ReferenceGraph(model *speedup.Model) *dnn.Graph {
	g := dnn.ResNet18(dnn.DefaultCostModel())
	dnn.Calibrate(g, model, float64(speedup.DeviceSMs), ReferenceLatencyMS)
	return g
}

// defaultModel returns the process-wide default speedup model. The model is
// immutable after construction and DefaultModel is deterministic, so one
// shared instance serves every run — and gives the offline cache a stable
// identity to key on.
var defaultModel = sync.OnceValue(speedup.DefaultModel)

// DefaultModel exposes the shared default speedup model. Callers that
// profile directly (`sgprs analyze`) must use this instance — not a fresh
// speedup.DefaultModel() — for their measurements to share offline-cache
// entries with the run drivers, which key on model identity.
func DefaultModel() *speedup.Model { return defaultModel() }

// Run executes one simulation and returns its metrics. The offline phase
// (reference-graph calibration, WCET profiling) is served from the
// process-wide cache (memo.Default()); results are bit-identical to an
// uncached run (see memo's package comment and TestCachedRunBitIdentical).
//
// Metrics stream through a metrics.Collector and jobs recycle through an
// rt.JobPool as the run progresses (via an ephemeral Session), so live
// memory is O(in-flight jobs) whatever the horizon. The streaming-equivalence
// tests pin this path bit-identical to a retain-everything batch reference
// that lives in the tests.
func Run(cfg RunConfig) (Result, error) {
	return NewSession(memo.Default()).Run(cfg)
}

// scheduler returns fleet member i's scheduler for cfg, reset for a new run.
// The session keeps one scheduler of each kind per fleet position across
// runs, with their context states, queues and per-task slots, so a run
// rebuilds none of them.
func (s *Session) scheduler(i int, cfg RunConfig) (sched.Member, error) {
	switch cfg.Kind {
	case KindSGPRS:
		for len(s.sgprs) <= i {
			s.sgprs = append(s.sgprs, &core.Scheduler{})
		}
		return s.sgprs[i], s.sgprs[i].Reset(core.Config{
			Name:                   cfg.Name,
			ContextSMs:             cfg.ContextSMs,
			DisableMediumPromotion: cfg.DisableMediumPromotion,
			DisableLateDrop:        cfg.DisableLateDrop,
			FlattenPriorities:      cfg.FlattenPriorities,
		})
	case KindNaive:
		for len(s.naives) <= i {
			s.naives = append(s.naives, &naive.Scheduler{})
		}
		return s.naives[i], s.naives[i].Reset(naive.Config{Name: cfg.Name, ContextSMs: cfg.ContextSMs})
	default:
		return nil, fmt.Errorf("sim: unknown scheduler kind %v", cfg.Kind)
	}
}

// ContextPool computes the per-context SM allocation for a pool of np
// contexts at over-subscription level os on a device of totalSMs: each
// context gets round(os·total/np), clamped to [1, total]. It panics unless
// np, os and totalSMs are all positive (a NaN os included).
func ContextPool(np int, os float64, totalSMs int) []int {
	if np <= 0 || !(os > 0) || totalSMs <= 0 {
		panic(fmt.Sprintf("sim: invalid pool np=%d os=%v sms=%d", np, os, totalSMs))
	}
	// Clamp before converting: a huge os would overflow the int.
	per := min(max(math.Round(os*float64(totalSMs)/float64(np)), 1), float64(totalSMs))
	out := make([]int, np)
	for i := range out {
		out[i] = int(per)
	}
	return out
}

// Variant is one scheduler configuration of a scenario sweep.
type Variant struct {
	Kind Kind
	Name string
	OS   float64 // over-subscription level (SGPRS); 1.0 for naive
}

// ScenarioVariants returns the paper's four series per scenario: the naive
// baseline plus SGPRS at over-subscription 1.0, 1.5, and 2.0.
func ScenarioVariants() []Variant {
	return []Variant{
		{Kind: KindNaive, Name: "naive", OS: 1.0},
		{Kind: KindSGPRS, Name: "sgprs-1.0x", OS: 1.0},
		{Kind: KindSGPRS, Name: "sgprs-1.5x", OS: 1.5},
		{Kind: KindSGPRS, Name: "sgprs-2.0x", OS: 2.0},
	}
}

// ScenarioContexts reports the context-pool size of a paper scenario:
// Scenario 1 has two contexts, Scenario 2 has three.
func ScenarioContexts(scenario int) (int, error) {
	switch scenario {
	case 1:
		return 2, nil
	case 2:
		return 3, nil
	default:
		return 0, fmt.Errorf("sim: unknown scenario %d", scenario)
	}
}
