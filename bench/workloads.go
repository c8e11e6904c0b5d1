package main

import (
	"fmt"

	"sgprs/internal/exp"
	"sgprs/internal/fault"
	"sgprs/internal/gpu"
	"sgprs/internal/runner"
	"sgprs/internal/sim"
	"sgprs/internal/speedup"
)

// A workload is one fixed grid of simulation cells. Each run compiles its
// specs, seeds every cell, and replays the cells back to back on one runner
// worker: a closed loop on the host, whatever load shape the cells simulate.
type workload struct {
	name string
	why  string
	// specs builds the workload's experiments; cells are their compiled jobs
	// in spec order.
	specs func() ([]*exp.Spec, error)
	// seedGPU also reseeds an explicit GPU config (Normalize only seeds the
	// zero-valued default one).
	seedGPU bool
}

// workloads are the benchmark's regimes. Each stresses a different layer mix
// (see README.md), and each pairs with another that bypasses its dominant
// mechanism: steady-state engages fast-forward on every cell, the other three
// never do.
var workloads = []workload{
	{
		name: "paper-grid",
		why:  "the paper's Figure 3/4 sweep; contention jitter keeps fast-forward off, so the gpu rate engine and des heap dominate",
		specs: func() ([]*exp.Spec, error) {
			var out []*exp.Spec
			for _, sc := range []int{1, 2} {
				s, err := exp.Scenario(sc, []int{4, 8, 12, 16, 20, 23, 25, 28, 30}, 4, 1)
				if err != nil {
					return nil, err
				}
				out = append(out, s)
			}
			return out, nil
		},
	},
	{
		name:    "steady-state",
		why:     "jitter-free 300 s horizons: every cell fast-forwards, so the ff replay and metrics layers dominate",
		specs:   steadyState,
		seedGPU: true,
	},
	{
		name: "overload-open",
		why:  "open-loop Poisson overload: drops, discards and naive's backlog drive the scheduler and collector instead of completions",
		specs: func() ([]*exp.Spec, error) {
			s, err := lookup("overload-tail")
			if err != nil {
				return nil, err
			}
			return []*exp.Spec{s}, nil
		},
	},
	{
		name:  "faulted-fleet",
		why:   "the only regime running the cluster and fault layers: device crashes, transient retries, overruns, degradation",
		specs: faultedFleet,
	},
}

// steadyState is SGPRS at three over-subscription levels on 2- and
// 3-context pools with contention jitter off, the configuration the
// fast-forward detector is eligible for.
func steadyState() ([]*exp.Spec, error) {
	g := gpu.DefaultConfig()
	g.ContentionJitter = 0
	s := &exp.Spec{
		Name: "steady-state",
		Axes: []exp.Axis{exp.Tasks(8, 16, 24, 30)},
	}
	for _, np := range []int{2, 3} {
		for _, over := range []float64{1.0, 1.5, 2.0} {
			s.Variants = append(s.Variants, sim.RunConfig{
				Kind:       sim.KindSGPRS,
				Name:       fmt.Sprintf("sgprs-%.1fx-%dctx", over, np),
				ContextSMs: sim.ContextPool(np, over, speedup.DeviceSMs),
				HorizonSec: 300,
				NumTasks:   1,
				GPU:        g,
			})
		}
	}
	return []*exp.Spec{s}, nil
}

// faultedFleet is the fleet-failover builtin at 8 s, whose crashed variants
// also suffer transient faults and overruns, plus fault-resilience at one
// fault rate with an SM-degradation window.
func faultedFleet() ([]*exp.Spec, error) {
	fleet, err := lookup("fleet-failover")
	if err != nil {
		return nil, err
	}
	for i := range fleet.Variants {
		v := &fleet.Variants[i]
		v.HorizonSec = 8
		if v.Faults != nil {
			v.Faults.Transient = &fault.Transient{Prob: 0.02, Policy: "retry"}
			v.Faults.Overrun = &fault.Overrun{Model: fault.OverrunHeavyTail, Factor: 1.5}
		}
	}
	fleet.Axes = []exp.Axis{exp.Tasks(12, 24, 36, 48)}

	res, err := lookup("fault-resilience")
	if err != nil {
		return nil, err
	}
	for i := range res.Variants {
		res.Variants[i].Faults.Degradation = []fault.Window{{StartSec: 4, EndSec: 6, SMs: 48}}
	}
	res.Axes = []exp.Axis{exp.FaultRate(0.05), exp.Tasks(8, 16, 24, 30)}
	return []*exp.Spec{fleet, res}, nil
}

func lookup(name string) (*exp.Spec, error) {
	s, ok := exp.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("bench: builtin experiment %q is not registered", name)
	}
	return s, nil
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// compile expands the workload's specs into its cell list with every cell's
// run seed set to seed.
func (w workload) compile(seed uint64) ([]runner.Job, error) {
	specs, err := w.specs()
	if err != nil {
		return nil, err
	}
	var jobs []runner.Job
	for _, s := range specs {
		c, err := s.Compile()
		if err != nil {
			return nil, err
		}
		for _, j := range c.Jobs {
			j.Config.Seed = seed
			if w.seedGPU {
				j.Config.GPU.Seed = seed + 1
			}
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}
