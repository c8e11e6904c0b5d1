// Package profile implements the offline phase's measurement half (Section
// IV-A2): per-stage and per-task WCETs obtained by running kernels in
// isolation on the simulated device, plus the speedup-gain measurements
// behind the paper's Figure 1.
//
// Measurements run real simulated executions on a private device rather than
// evaluating the analytic model directly, so the profiler exercises exactly
// the code path the online phase uses (launch overhead included).
package profile

import (
	"errors"
	"fmt"

	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/gpu"
	"sgprs/internal/rt"
	"sgprs/internal/speedup"
)

// Profiler measures execution times in isolation.
type Profiler struct {
	model *speedup.Model
	cfg   gpu.Config
	// Margin inflates measured times into WCETs: WCET = measured ×
	// (1 + Margin). Isolation measurements carry no contention jitter, so
	// a margin gives the online phase headroom, exactly like padding a
	// measured WCET on real hardware.
	Margin float64
}

// New builds a profiler over the given speedup model and device config.
func New(model *speedup.Model, cfg gpu.Config) *Profiler {
	return &Profiler{model: model, cfg: cfg, Margin: 0.05}
}

// Model returns the speedup model measurements run against.
func (p *Profiler) Model() *speedup.Model { return p.model }

// Config returns the device configuration measurements run against.
func (p *Profiler) Config() gpu.Config { return p.cfg }

// measure runs one kernel of the given shares, named name in errors, alone
// on a fresh device with a context of sms SMs and returns its wall latency
// (including launch overhead).
func (p *Profiler) measure(name string, shares []speedup.WorkShare, sms int) (des.Time, error) {
	eng := des.NewEngine()
	cfg := p.cfg
	// Isolation: no contention is possible, but zero the stochastic terms
	// anyway so profiling is independent of seed.
	cfg.ContentionJitter = 0
	cfg.ContentionPenalty = 0
	dev, err := gpu.NewDevice(eng, p.model, cfg)
	if err != nil {
		return 0, err
	}
	ctx, err := dev.CreateContext("profile", sms)
	if err != nil {
		return 0, err
	}
	var done des.Time
	k := &gpu.Kernel{Shares: shares, OnDone: func(_ *gpu.Kernel, now des.Time) { done = now }}
	ctx.AddStream("s0", gpu.LowPriority).Submit(k)
	eng.Run()
	if done == 0 {
		return 0, fmt.Errorf("profile: kernel %q never completed", name)
	}
	return done, nil
}

// ErrWCETOverflow reports a margin that pads a WCET, or a task's WCETs
// together, past the simulated clock.
var ErrWCETOverflow = errors.New("padded WCET overflows the simulated clock")

// pad applies the WCET margin, saturating at des.Never (a NaN margin
// included).
func (p *Profiler) pad(t des.Time) des.Time {
	if w := float64(t) * (1 + p.Margin); w < float64(des.Never) {
		return des.Time(w)
	}
	return des.Never
}

// StageWCET measures stage st in isolation on a context of sms SMs. It
// fails with ErrWCETOverflow when the margin pads it past the clock.
func (p *Profiler) StageWCET(st *dnn.Stage, sms int) (des.Time, error) {
	t, err := p.measure(st.Name(), st.Shares, sms)
	if err != nil {
		return 0, err
	}
	if w := p.pad(t); w != des.Never {
		return w, nil
	}
	return 0, fmt.Errorf("profile: stage %s with margin %v: %w", st.Name(), p.Margin, ErrWCETOverflow)
}

// ProfileTask measures every stage of the task on a context of sms SMs and
// installs the WCETs (which also derives the virtual deadlines). The SM count
// should be the smallest context of the pool the task will run in — the
// conservative choice.
func (p *Profiler) ProfileTask(task *rt.Task, sms int) error {
	wcets := make([]des.Time, len(task.Stages))
	var total des.Time
	for j, st := range task.Stages {
		c, err := p.StageWCET(st, sms)
		if err != nil {
			return fmt.Errorf("profile: task %s stage %d: %w", task.Name, j, err)
		}
		if c >= des.Never-total {
			return fmt.Errorf("profile: task %s with margin %v: %w", task.Name, p.Margin, ErrWCETOverflow)
		}
		total += c
		wcets[j] = c
	}
	return task.SetWCETs(wcets)
}

// OperationGain measures the speedup gain of workMS single-SM milliseconds of
// class cl at sms SMs relative to one SM — one point of Figure 1.
func (p *Profiler) OperationGain(cl speedup.Class, workMS float64, sms int) (float64, error) {
	shares := []speedup.WorkShare{{Class: cl, Work: workMS}}
	t1, err := p.measure(cl.String(), shares, 1)
	if err != nil {
		return 0, err
	}
	tn, err := p.measure(cl.String(), shares, sms)
	if err != nil {
		return 0, err
	}
	if tn == 0 {
		return 0, fmt.Errorf("profile: zero latency at %d SMs", sms)
	}
	return float64(t1) / float64(tn), nil
}

// NetworkGain measures the composed speedup of a whole network at sms SMs
// relative to one SM — the "ResNet18" series of Figure 1.
func (p *Profiler) NetworkGain(g *dnn.Graph, sms int) (float64, error) {
	shares := g.WorkByClass()
	t1, err := p.measure(g.Name, shares, 1)
	if err != nil {
		return 0, err
	}
	tn, err := p.measure(g.Name, shares, sms)
	if err != nil {
		return 0, err
	}
	if tn == 0 {
		return 0, fmt.Errorf("profile: zero latency at %d SMs", sms)
	}
	return float64(t1) / float64(tn), nil
}
