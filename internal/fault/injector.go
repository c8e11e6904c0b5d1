package fault

import (
	"fmt"
	"math"

	"sgprs/internal/des"
	"sgprs/internal/gpu"
	"sgprs/internal/metrics"
	"sgprs/internal/rt"
	"sgprs/internal/sched"
)

// rngSalt separates the fault streams from every other consumer of the run
// seed; the overrun and transient families then fork their own children so
// adding one family never shifts the other's cursor.
const rngSalt = 0xFA017

// Injector drives all three fault families of a run. It installs itself as
// the device's gpu.Hook, schedules degradation-window edges on the engine,
// and hands aborted kernels to the scheduler's RecoverKernel. One
// injector serves one run; build a fresh one per run.
type Injector struct {
	cfg     *Config
	eng     *des.Engine
	dev     *gpu.Device
	handler sched.Member
	col     *metrics.Collector

	// orng and trng are the overrun and transient draw streams. They are
	// separate forks so the families' cursors are independent, and they
	// exist only while faults are configured: a nil-Faults run never
	// constructs them.
	orng, trng *des.RNG

	defPolicy  rt.RecoveryPolicy
	defRetries int
	backoff    des.Time

	// freeFaults recycles the structs armed transient faults travel in:
	// fireTransient copies the fields out and returns the struct here.
	freeFaults []*pendingFault

	// stats holds the injection counters; the collector fills the
	// degraded-window fields of the run's own FaultStats.
	stats metrics.FaultStats
}

// NewInjector builds the injector for one run. handler is the device's
// scheduler, which recovers aborted kernels; seed feeds the dedicated fault
// RNG streams (the caller resolves Config.Seed = 0 to a run-derived value).
func NewInjector(cfg *Config, eng *des.Engine, dev *gpu.Device, handler sched.Member, seed uint64) (*Injector, error) {
	if cfg == nil {
		return nil, fmt.Errorf("fault: nil config")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{
		cfg:        cfg,
		eng:        eng,
		dev:        dev,
		handler:    handler,
		defPolicy:  rt.RecoverRetry,
		defRetries: 1,
	}
	if t := cfg.Transient; t != nil {
		pol, err := rt.ParseRecoveryPolicy(t.Policy)
		if err != nil {
			return nil, err
		}
		if pol != rt.RecoverDefault {
			in.defPolicy = pol
		}
		if t.MaxRetries > 0 {
			in.defRetries = t.MaxRetries
		}
		in.backoff = des.Time(t.BackoffMS * float64(des.Millisecond))
	}
	for i, w := range cfg.Degradation {
		if w.SMs > dev.Config().TotalSMs {
			return nil, fmt.Errorf("fault: degradation window %d wants %d SMs, device has %d",
				i, w.SMs, dev.Config().TotalSMs)
		}
	}
	base := des.NewRNG(seed).Fork(rngSalt)
	in.orng = base.Fork(1)
	in.trng = base.Fork(2)
	return in, nil
}

// Install hooks the injector into the device and schedules the degradation
// window edges. col (may be nil) is flipped at each edge so it can
// attribute releases to degraded intervals. Call once, before the run
// starts.
func (in *Injector) Install(col *metrics.Collector) {
	in.col = col
	in.dev.SetHook(in)
	total := in.dev.Config().TotalSMs
	for _, w := range in.cfg.Degradation {
		w := w
		in.eng.ScheduleFunc(des.FromSeconds(w.StartSec), "fault.degrade", func(now des.Time) {
			// Bounds were checked at construction; a failure here
			// would be an engine bug, not bad input.
			if err := in.dev.SetEffectiveSMs(w.SMs, now); err != nil {
				panic(err)
			}
			if in.col != nil {
				in.col.SetDegraded(true)
			}
		})
		in.eng.ScheduleFunc(des.FromSeconds(w.EndSec), "fault.restore", func(now des.Time) {
			if err := in.dev.SetEffectiveSMs(total, now); err != nil {
				panic(err)
			}
			if in.col != nil {
				in.col.SetDegraded(false)
			}
		})
	}
}

// AddStats adds the injection counters accumulated so far to s.
func (in *Injector) AddStats(s *metrics.FaultStats) {
	s.Overruns += in.stats.Overruns
	s.OverrunMassMS += in.stats.OverrunMassMS
	s.TransientFaults += in.stats.TransientFaults
	s.Retries += in.stats.Retries
	s.Recoveries += in.stats.Recoveries
	s.SkippedJobs += in.stats.SkippedJobs
	s.KilledChains += in.stats.KilledChains
}

// jobOf resolves the job a kernel executes for from its scheduler payload —
// SGPRS stamps the stage instance, naive the whole job. Kernels with a
// foreign payload are invisible to the transient and spike families.
func jobOf(k *gpu.Kernel) *rt.Job {
	switch a := k.Arg.(type) {
	case *rt.StageJob:
		return a.Job
	case *rt.Job:
		return a
	}
	return nil
}

// KernelLaunched implements gpu.Hook: it runs after the launch's admission
// bookkeeping and before rates are derived, so inflated work flows into the
// launch's first rate assignment, the waterfill, and the aggregate ceiling.
func (in *Injector) KernelLaunched(k *gpu.Kernel, now des.Time) {
	if o := in.cfg.Overrun; o != nil {
		factor := 1.0
		switch o.Model {
		case OverrunConstant:
			factor = o.Factor
		case OverrunHeavyTail:
			alpha := o.Alpha
			if alpha == 0 {
				alpha = 3
			}
			// Pareto with unit minimum: most draws sit just above 1,
			// the tail — capped at Factor — overruns badly.
			factor = math.Min(o.Factor, math.Pow(1-float64(in.orng.Float64()), -1/alpha))
		case OverrunSpike:
			every := o.Every
			if every == 0 {
				every = 10
			}
			if j := jobOf(k); j != nil && j.Index%every == 0 {
				factor = o.Factor
			}
		}
		if extra := k.InflateWork(factor); extra > 0 {
			in.stats.Overruns++
			in.stats.OverrunMassMS += extra
		}
	}
	if t := in.cfg.Transient; t != nil && t.Prob > 0 {
		// Both draws happen on every launch-with-a-job, so whether one
		// kernel faults never shifts a later kernel's draw.
		if j := jobOf(k); j != nil {
			hit := in.trng.Float64() < t.Prob
			frac := in.trng.Float64()
			if hit {
				in.armFault(k, frac)
			}
		}
	}
}

// armFault schedules the mid-flight abort of k's current launch at fraction
// frac of its estimated isolated latency. The estimate deliberately ignores
// contention — isolated latency at the full context is a lower bound on the
// real duration, so the fault usually lands while the kernel still runs; a
// kernel that finishes first simply escapes the fault (fireTransient's
// staleness check), which is exactly how a fault window behaves in hardware.
func (in *Injector) armFault(k *gpu.Kernel, frac float64) {
	est := k.IsolatedLatencyMS(in.dev.Model(), float64(k.Stream().Context().SMs()))
	delay := des.Time(frac * est * float64(des.Millisecond))
	var pf *pendingFault
	if n := len(in.freeFaults); n > 0 {
		pf = in.freeFaults[n-1]
		in.freeFaults = in.freeFaults[:n-1]
	} else {
		pf = &pendingFault{}
	}
	*pf = pendingFault{in: in, k: k, seq: k.LaunchSeq()}
	in.eng.AfterArg(delay, "fault.transient", fireTransient, pf)
}

// pendingFault carries a scheduled transient fault to its firing instant.
// The launch sequence number detects staleness: kernels recycle through the
// device free list, so the pointer alone cannot prove the armed launch is
// still the running one.
type pendingFault struct {
	in  *Injector
	k   *gpu.Kernel
	seq uint64
}

// fireTransient aborts the kernel mid-flight and drives the scheduler's
// recovery policy. Stale faults — the kernel finished (or was recycled and
// relaunched) before the fault instant — dissolve silently.
func fireTransient(now des.Time, arg any) {
	pf := arg.(*pendingFault)
	in, k, seq := pf.in, pf.k, pf.seq
	pf.k = nil
	in.freeFaults = append(in.freeFaults, pf)
	if !k.Running() || k.LaunchSeq() != seq {
		return
	}
	in.stats.TransientFaults++
	job := jobOf(k)
	task := job.Task

	pol := task.Recovery
	if pol == rt.RecoverDefault {
		pol = in.defPolicy
	}
	budget := task.MaxRetries
	if budget == 0 {
		budget = in.defRetries
	}
	var action sched.RecoveryAction
	switch {
	case pol == rt.RecoverRetry && job.Retries < budget:
		action = sched.ActionRetry
		job.Retries++
		in.stats.Retries++
	case pol == rt.RecoverKillChain:
		action = sched.ActionKillChain
		in.stats.KilledChains++
	default:
		// Skip-job, or retry with an exhausted budget.
		action = sched.ActionSkipJob
		in.stats.SkippedJobs++
	}

	stream := k.Stream()
	in.dev.Abort(k, now)
	in.handler.RecoverKernel(k, stream, action, in.backoff, now)
}

// KernelRetired implements gpu.Hook: a job completing its final kernel with a
// retry on record survived its fault — a recovery.
func (in *Injector) KernelRetired(k *gpu.Kernel, now des.Time) {
	switch a := k.Arg.(type) {
	case *rt.StageJob:
		if a.Index == len(a.Job.Stages)-1 && a.Job.Retries > 0 {
			in.stats.Recoveries++
		}
	case *rt.Job:
		if a.Retries > 0 {
			in.stats.Recoveries++
		}
	}
}
