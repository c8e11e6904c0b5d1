// Package fault is the seeded, deterministic fault-injection layer
// (DESIGN.md §13). It threads three injector families through the gpu stack:
// WCET overruns (per-kernel work inflation applied at launch, so rates and
// the waterfill see the true inflated demand), transient kernel faults (a
// running kernel is aborted mid-flight and the scheduler's recovery policy —
// retry, skip-job, or kill-chain — reconciles), and SM degradation windows
// (device capacity drops to K SMs over [t0, t1), forcing every scheduler to
// recompute shares against the shrunk device).
//
// Every draw comes from a dedicated RNG stream forked from the fault seed:
// enabling faults never perturbs the workload generator's or the device's
// jitter cursors, so a faulted run differs from its clean twin only by the
// faults themselves. A nil *Config disables the layer entirely and is
// bit-identical to a build without it.
package fault

import (
	"fmt"
	"math"
	"sort"

	"sgprs/internal/rt"
)

// Overrun model names.
const (
	// OverrunConstant inflates every kernel's work by Factor.
	OverrunConstant = "constant"
	// OverrunHeavyTail draws a Pareto(Alpha) factor per kernel, capped at
	// Factor — most kernels barely overrun, a heavy tail overruns badly.
	OverrunHeavyTail = "heavy-tail"
	// OverrunSpike inflates every Every-th frame of each task by Factor —
	// the periodic "hard frame" (keyframe, scene cut) pattern.
	OverrunSpike = "spike"
)

// Overrun configures WCET-overrun injection: how per-kernel execution demand
// is inflated beyond the profiled nominal at launch.
type Overrun struct {
	// Model selects the inflation shape: OverrunConstant,
	// OverrunHeavyTail, or OverrunSpike.
	Model string `json:"model"`
	// Factor is the inflation multiplier (constant, spike) or the cap on
	// the heavy-tailed draw. Must be at least 1; 1 disables inflation.
	Factor float64 `json:"factor"`
	// Alpha is the Pareto shape of the heavy-tailed draw (default 3;
	// smaller = heavier tail). Ignored by the other models.
	Alpha float64 `json:"alpha,omitempty"`
	// Every is the spike cadence in frames (default 10). Ignored by the
	// other models.
	Every int `json:"every,omitempty"`
}

// Transient configures mid-flight kernel faults and the run-level recovery
// defaults tasks fall back to when their own rt.RecoveryPolicy is unset.
type Transient struct {
	// Prob is the per-kernel-launch fault probability in [0, 1].
	Prob float64 `json:"prob"`
	// Policy is the default recovery policy name ("retry", "skip-job",
	// "kill-chain"); empty means retry.
	Policy string `json:"policy,omitempty"`
	// MaxRetries is the default per-job retry budget (default 1).
	MaxRetries int `json:"max_retries,omitempty"`
	// BackoffMS delays a retry's re-submission (default 0: immediate).
	BackoffMS float64 `json:"backoff_ms,omitempty"`
}

// Window is one SM-degradation interval: the device runs at SMs effective
// capacity over [StartSec, EndSec).
type Window struct {
	StartSec float64 `json:"start_sec"`
	EndSec   float64 `json:"end_sec"`
	SMs      int     `json:"sms"`
}

// DeviceFault is one device-level failure domain event: device Device
// crashes at StartSec and — unless the loss is permanent — restarts at
// RestartSec. A crash aborts every resident kernel, drains the device's
// queues, and hands the affected chains to the fleet dispatcher's failover
// policy (the cluster layer, DESIGN.md §15). Only meaningful on fleet runs
// (sim.RunConfig.Devices > 1).
type DeviceFault struct {
	// Device is the fleet index of the failing device.
	Device int `json:"device"`
	// StartSec is the crash instant in simulated seconds.
	StartSec float64 `json:"start_sec"`
	// RestartSec is the restart instant; 0 means the loss is permanent.
	RestartSec float64 `json:"restart_sec,omitempty"`
}

// Config is the fault-injection configuration of one run. The zero value
// (all families nil/empty) installs the injection hook but injects nothing —
// useful for pinning hook placement as bit-identical to no hook at all. A
// nil *Config skips the layer entirely.
type Config struct {
	// Seed feeds the dedicated fault RNG streams; 0 derives one from the
	// run seed, so sweeps decorrelate automatically.
	Seed uint64 `json:"seed,omitempty"`
	// Overrun, when non-nil, enables WCET-overrun injection.
	Overrun *Overrun `json:"overrun,omitempty"`
	// Transient, when non-nil with Prob > 0, enables transient kernel
	// faults.
	Transient *Transient `json:"transient,omitempty"`
	// Degradation lists SM-degradation windows; they must be sorted and
	// non-overlapping.
	Degradation []Window `json:"degradation,omitempty"`
	// DeviceFaults lists device-level crash/restart events; they require a
	// fleet run (sim.RunConfig.Devices > 1), which checks each Device index
	// against the fleet size.
	DeviceFaults []DeviceFault `json:"device_faults,omitempty"`
}

// Validate reports whether the configuration is usable. It never mutates the
// receiver: a Config may be shared across experiment cells, so defaults are
// resolved at injection time instead of being written back. Every float must
// be finite: a NaN compares false against any bound, so each check rules it
// out explicitly.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	if o := c.Overrun; o != nil {
		switch o.Model {
		case OverrunConstant, OverrunHeavyTail, OverrunSpike:
		default:
			return fmt.Errorf("fault: unknown overrun model %q (want %s, %s, or %s)",
				o.Model, OverrunConstant, OverrunHeavyTail, OverrunSpike)
		}
		if o.Factor < 1 || !finite(o.Factor) {
			return fmt.Errorf("fault: overrun factor %v must be at least 1 and finite", o.Factor)
		}
		if o.Alpha < 0 || !finite(o.Alpha) {
			return fmt.Errorf("fault: overrun alpha %v must be non-negative and finite", o.Alpha)
		}
		if o.Every < 0 {
			return fmt.Errorf("fault: overrun cadence %d must be non-negative", o.Every)
		}
	}
	if t := c.Transient; t != nil {
		if !(t.Prob >= 0 && t.Prob <= 1) {
			return fmt.Errorf("fault: transient probability %v outside [0, 1]", t.Prob)
		}
		if _, err := rt.ParseRecoveryPolicy(t.Policy); err != nil {
			return err
		}
		if t.MaxRetries < 0 {
			return fmt.Errorf("fault: retry budget %d must be non-negative", t.MaxRetries)
		}
		if t.BackoffMS < 0 || !finite(t.BackoffMS) {
			return fmt.Errorf("fault: retry backoff %v ms must be non-negative and finite", t.BackoffMS)
		}
	}
	if !sort.SliceIsSorted(c.Degradation, func(i, j int) bool {
		return c.Degradation[i].StartSec < c.Degradation[j].StartSec
	}) {
		return fmt.Errorf("fault: degradation windows must be sorted by start")
	}
	for i, w := range c.Degradation {
		if w.SMs < 1 {
			return fmt.Errorf("fault: degradation window %d SM count %d must be positive", i, w.SMs)
		}
		if w.StartSec < 0 || w.EndSec <= w.StartSec || !finite(w.StartSec) || !finite(w.EndSec) {
			return fmt.Errorf("fault: degradation window %d [%v, %v) is not a forward interval of finite seconds", i, w.StartSec, w.EndSec)
		}
		if i > 0 && w.StartSec < c.Degradation[i-1].EndSec {
			return fmt.Errorf("fault: degradation windows %d and %d overlap", i-1, i)
		}
	}
	for i, f := range c.DeviceFaults {
		if f.Device < 0 {
			return fmt.Errorf("fault: device fault %d device index %d must be non-negative", i, f.Device)
		}
		if f.StartSec < 0 || !finite(f.StartSec) {
			return fmt.Errorf("fault: device fault %d start %v must be non-negative and finite", i, f.StartSec)
		}
		if f.RestartSec != 0 && (f.RestartSec <= f.StartSec || !finite(f.RestartSec)) {
			return fmt.Errorf("fault: device fault %d restart %v must be finite and follow crash %v (or be 0 for permanent loss)",
				i, f.RestartSec, f.StartSec)
		}
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Clone deep-copies the configuration (nil-safe). Experiment axes mutate
// per-cell copies; the variant's own Config must stay pristine.
func (c *Config) Clone() *Config {
	if c == nil {
		return nil
	}
	out := &Config{Seed: c.Seed}
	if c.Overrun != nil {
		o := *c.Overrun
		out.Overrun = &o
	}
	if c.Transient != nil {
		t := *c.Transient
		out.Transient = &t
	}
	if len(c.Degradation) > 0 {
		out.Degradation = append([]Window(nil), c.Degradation...)
	}
	if len(c.DeviceFaults) > 0 {
		out.DeviceFaults = append([]DeviceFault(nil), c.DeviceFaults...)
	}
	return out
}
