package sim

import (
	"sgprs/internal/cluster"
	"sgprs/internal/des"
	"sgprs/internal/fault"
	"sgprs/internal/gpu"
	"sgprs/internal/metrics"
	"sgprs/internal/rt"
	"sgprs/internal/slab"
)

// runFleet is Session.Run's online phase (DESIGN.md §15): the run's devices
// on the one shared engine, each with its own scheduler instance attached to
// the full task set, behind a cluster dispatcher that owns placement,
// failover, and admission. A single GPU is a fleet of one, whose dispatcher
// hands every release to its one member unchanged. Session.Run has already
// reset the engine and the devices, built the task set, and profiled it;
// this picks up from there.
//
// Seeds: device i's fault injector runs at faultSeed+i (faultSeed defaults
// to the run seed +3, after GPU +1 and workload +2), as the device itself
// runs at cfg.GPU.Seed+i. All derived streams fork with distinct salts, so
// overlapping bases cannot collide.
func (s *Session) runFleet(cfg RunConfig, tasks []*rt.Task) (Result, error) {
	devs := s.devs[:max(cfg.Devices, 1)]
	clear(s.members)
	s.members = s.members[:0]
	for i, d := range devs {
		sch, err := s.scheduler(i, cfg)
		if err != nil {
			return Result{}, err
		}
		if err := sch.Attach(s.eng, d, tasks); err != nil {
			return Result{}, err
		}
		s.members = append(s.members, cluster.Member{Dev: d, Sch: sch})
	}

	horizon := des.FromSeconds(cfg.HorizonSec)
	warmUp := des.FromSeconds(cfg.WarmUpSec)
	if s.collector == nil {
		s.collector = metrics.NewCollector(warmUp, horizon)
	} else {
		s.collector.Reset(warmUp, horizon)
	}
	s.collector.SetSLO(cfg.SLOMS)

	// Fault injection (DESIGN.md §13): each injector draws from dedicated
	// forked RNG streams, so installing one never perturbs the workload or
	// contention-jitter cursors; with cfg.Faults nil none of this runs. The
	// kernel-level fault families run per device: every member gets its own
	// injector (own forked streams, own device hook, its scheduler as
	// recovery handler). The degradation windows are fleet-wide — the same
	// config applies to every device — so only device 0's injector flips the
	// collector's degraded marker: the edges coincide across devices, and one
	// toggle per edge is the collector's contract.
	s.injs = s.injs[:0]
	var deviceFaults []fault.DeviceFault
	if cfg.Faults != nil {
		deviceFaults = cfg.Faults.DeviceFaults
		base := cfg.Faults.Seed
		if base == 0 {
			base = cfg.Seed + 3
		}
		for i, m := range s.members {
			var inj *fault.Injector
			s.injs, inj = slab.Reuse(s.injs)
			if err := inj.Reset(cfg.Faults, s.eng, m.Dev, m.Sch, base+uint64(i)); err != nil {
				return Result{}, err
			}
			var col *metrics.Collector
			if i == 0 {
				col = s.collector
			}
			inj.Install(col)
		}
	}

	if err := s.fleet.Reset(s.eng, cluster.Config{
		Placement:    cfg.Placement,
		Failover:     cfg.Failover,
		AdmitCeiling: cfg.AdmitCeiling,
		DeviceFaults: deviceFaults,
	}, s.members, tasks, horizon); err != nil {
		return Result{}, err
	}
	s.fleet.Install(s.collector)

	gen := &s.gen
	gen.Reset(s.eng, &s.fleet, cfg.Seed+2)
	gen.SetSink(s.collector)
	gen.UsePool(&s.pool)
	gen.SetArrival(cfg.Arrival)
	gen.Start(tasks, horizon)
	ff := s.runToHorizon(cfg, gen, tasks, warmUp, horizon)

	sum := s.collector.Summary()
	// The collector filled the degraded-window and fleet-degraded
	// attribution; the injectors, in fleet order, and the dispatcher add
	// what they counted. A fleet of one leaves Summary.Fleet zero: its
	// dispatcher counts nothing, and the collector saw no fleet-degraded
	// interval.
	for _, inj := range s.injs {
		inj.AddStats(&sum.Faults)
	}
	if len(devs) > 1 {
		s.fleet.AddStats(&sum.Fleet)
	}

	pm := gpu.DefaultPowerModel()
	res := Result{
		Name:        cfg.Name,
		Tasks:       cfg.NumTasks,
		Summary:     sum,
		FastForward: ff,
	}
	// Fleet-level rollups: utilization averages over the devices (each is
	// already a [0,1] mean over time), energy and power add up. Fixed
	// fleet-position summation order; for a fleet of one, x/1 and 0+x are
	// exact, so the rollups equal the device's own figures.
	var util, energy, power float64
	for _, d := range devs {
		util += d.Utilization()
		energy += d.EnergyJoules(pm)
		power += d.AveragePowerW(pm)
	}
	res.DeviceUtilization = util / float64(len(devs))
	res.EnergyJoules = energy
	res.AvgPowerW = power
	if res.AvgPowerW > 0 {
		res.FPSPerWatt = sum.TotalFPS / res.AvgPowerW
	}
	return res, nil
}
