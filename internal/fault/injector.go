package fault

import (
	"fmt"
	"math"

	"sgprs/internal/des"
	"sgprs/internal/gpu"
	"sgprs/internal/metrics"
	"sgprs/internal/rt"
	"sgprs/internal/sched"
	"sgprs/internal/slab"
)

// rngSalt separates the fault streams from every other consumer of the run
// seed; the overrun and transient families then fork their own children so
// adding one family never shifts the other's cursor.
const rngSalt = 0xFA017

// Injector drives all three fault families of a run. It installs itself as
// one of the device's gpu.Hooks, schedules degradation-window edges on the engine,
// and hands aborted kernels to the scheduler's RecoverKernel. The zero
// Injector is ready for Reset, which readies it for one run; a session keeps
// one injector per fleet position and resets it for each faulted run, as it
// keeps its schedulers.
type Injector struct {
	cfg     *Config
	eng     *des.Engine
	dev     *gpu.Device
	handler sched.Member
	col     *metrics.Collector

	// orng and trng are the overrun and transient draw streams, held by
	// value and re-forked from the seed by Reset. They are separate forks
	// so the families' cursors are independent.
	orng, trng des.RNG
	// tail is the heavy-tail overrun draw with its per-run constants.
	tail paretoDraw

	defPolicy  rt.RecoveryPolicy
	defRetries int
	backoff    des.Time

	// faults carves the structs armed transient faults travel in, and
	// freeFaults recycles them: fireTransient copies the fields out and
	// returns the struct here, and Reset returns every carved one.
	faults     slab.Arena[pendingFault]
	freeFaults []*pendingFault

	// edges are the degradation-window edges Install scheduled, two per
	// window; the pending edge events point into it.
	edges []windowEdge

	// stats holds the injection counters; the collector fills the
	// degraded-window fields of the run's own FaultStats.
	stats metrics.FaultStats
}

// Reset readies the injector for one run, exactly as a new one would start
// it. handler is the device's scheduler, which recovers aborted kernels;
// seed feeds the dedicated fault RNG streams (the caller resolves
// Config.Seed = 0 to a run-derived value). The streams are re-forked in
// place, the counters zeroed, and every pending-fault struct the injector
// ever carved goes back on its free list, so the engine must have dropped
// the previous run's events first (des.Engine.Reset), as the session does
// before it resets anything else.
func (in *Injector) Reset(cfg *Config, eng *des.Engine, dev *gpu.Device, handler sched.Member, seed uint64) error {
	if cfg == nil {
		return fmt.Errorf("fault: nil config")
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	for i, w := range cfg.Degradation {
		if w.SMs > dev.Config().TotalSMs {
			return fmt.Errorf("fault: degradation window %d wants %d SMs, device has %d",
				i, w.SMs, dev.Config().TotalSMs)
		}
	}
	*in = Injector{
		cfg:        cfg,
		eng:        eng,
		dev:        dev,
		handler:    handler,
		defPolicy:  rt.RecoverRetry,
		defRetries: 1,
		faults:     in.faults,
		freeFaults: in.freeFaults[:0],
		edges:      in.edges[:0],
	}
	in.faults.Each(func(pf *pendingFault) {
		pf.k = nil
		in.freeFaults = append(in.freeFaults, pf)
	})
	if t := cfg.Transient; t != nil {
		// Validate parsed the policy already.
		if pol, _ := rt.ParseRecoveryPolicy(t.Policy); pol != rt.RecoverDefault {
			in.defPolicy = pol
		}
		if t.MaxRetries > 0 {
			in.defRetries = t.MaxRetries
		}
		in.backoff = des.Time(t.BackoffMS * float64(des.Millisecond))
	}
	if o := cfg.Overrun; o != nil && o.Model == OverrunHeavyTail {
		alpha := o.Alpha
		if alpha == 0 {
			alpha = 3
		}
		in.tail = newParetoDraw(o.Factor, alpha)
	}
	base := des.NewRNG(seed).Fork(rngSalt)
	in.orng = *base.Fork(1)
	in.trng = *base.Fork(2)
	return nil
}

// windowEdge is one degradation-window edge: at its instant the device's
// effective capacity becomes sms and the collector's degraded marker
// degraded.
type windowEdge struct {
	in       *Injector
	sms      int
	degraded bool
}

// Install hooks the injector into the device and schedules the degradation
// window edges. col (may be nil) is flipped at each edge so it can
// attribute releases to degraded intervals. Call once after Reset, before
// the run starts.
func (in *Injector) Install(col *metrics.Collector) {
	in.col = col
	in.dev.AddHook(in)
	total := in.dev.Config().TotalSMs
	// Filled before anything is scheduled: the events point into the
	// slice, which must not move under them.
	for _, w := range in.cfg.Degradation {
		in.edges = append(in.edges,
			windowEdge{in: in, sms: w.SMs, degraded: true},
			windowEdge{in: in, sms: total})
	}
	for i, w := range in.cfg.Degradation {
		in.eng.AfterArg(des.FromSeconds(w.StartSec)-in.eng.Now(), "fault.degrade", fireEdge, &in.edges[2*i])
		in.eng.AfterArg(des.FromSeconds(w.EndSec)-in.eng.Now(), "fault.restore", fireEdge, &in.edges[2*i+1])
	}
}

// fireEdge applies one degradation-window edge.
func fireEdge(now des.Time, arg any) {
	e := arg.(*windowEdge)
	// Bounds were checked by Reset; a failure here would be an engine
	// bug, not bad input.
	if err := e.in.dev.SetEffectiveSMs(e.sms, now); err != nil {
		panic(err)
	}
	if e.in.col != nil {
		e.in.col.SetDegraded(e.degraded)
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
			// Pareto with unit minimum: most draws sit just above 1,
			// the tail — capped at Factor — overruns badly.
			factor = in.tail.at(1 - float64(in.orng.Float64()))
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
		pf = in.faults.New()
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

// paretoDraw is the heavy-tail overrun factor min(F, x^(-1/α)) of a draw
// x = 1-u in (0, 1], with the constants a run computes once.
type paretoDraw struct {
	factor, alpha float64
	// inv is 1/α.
	inv float64
	// clip is F^-α shrunk by a relative 1e-12·max(1, α). Below it
	// x^(-1/α) exceeds F by a relative 1e-12 or more, far beyond Pow's
	// error, so the capped draw is exactly F and Pow need not run.
	clip float64
}

func newParetoDraw(factor, alpha float64) paretoDraw {
	return paretoDraw{
		factor: factor,
		alpha:  alpha,
		inv:    1 / alpha,
		clip:   math.Pow(factor, -alpha) * (1 - float64(1e-12*max(1, alpha))),
	}
}

// at returns math.Min(factor, math.Pow(x, -1/alpha)) bit for bit.
func (p *paretoDraw) at(x float64) float64 {
	if x < p.clip {
		return p.factor
	}
	if p.alpha > 2 {
		// For 0 < |y| < 1/2 and x ≠ 1, math.Pow(x, y) takes exactly
		// this path: Exp(|y|·Log(x)), inverted for negative y (its
		// assembly Pow on s390x aside). x = 1 gives 1 either way.
		return math.Min(p.factor, 1/math.Exp(p.inv*math.Log(x)))
	}
	return math.Min(p.factor, math.Pow(x, -1/p.alpha))
}
