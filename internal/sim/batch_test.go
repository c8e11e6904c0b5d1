package sim

import (
	"sgprs/internal/des"
	"sgprs/internal/gpu"
	"sgprs/internal/metrics"
	"sgprs/internal/profile"
	"sgprs/internal/rt"
	"sgprs/internal/workload"
)

// jobLog is a workload.JobSink that retains every released job in release
// order. The generator recycles nothing without a pool, so the log holds
// each job's final state when the run ends.
type jobLog struct{ jobs []*rt.Job }

func (l *jobLog) JobReleased(j *rt.Job, _ des.Time) { l.jobs = append(l.jobs, j) }
func (l *jobLog) JobDone(*rt.Job, des.Time)         {}
func (l *jobLog) JobDiscarded(*rt.Job, des.Time)    {}

// runBatch is the post-hoc, uncached reference implementation of Run: every
// released job is retained and metrics.EvaluateSLO scans them after the run,
// and the offline phase rebuilds the reference graph and profiles every task
// itself, with no memo.Cache. It allocates O(all jobs ever released) and
// exists as the semantic anchor the streaming, cached path (Session.Run) is
// tested against — change the two together or the equivalence tests will
// say so. It covers single-device, fault-free configurations only: fault
// and fleet accounting happen at release time in the streaming collector and
// have no batch equivalent.
func runBatch(cfg RunConfig) (Result, error) {
	if err := cfg.Normalize(); err != nil {
		return Result{}, err
	}
	eng := des.NewEngine()
	model := defaultModel()

	dev, err := gpu.NewDevice(eng, model, cfg.GPU)
	if err != nil {
		return Result{}, err
	}
	if cfg.Observer != nil {
		dev.AddHook(cfg.Observer)
	}

	graph := ReferenceGraph(model)
	specs := workload.Replicate(workload.Options{
		Count: cfg.NumTasks,
		Spec: workload.TaskSpec{
			Name:          "resnet18",
			Graph:         graph,
			Stages:        cfg.Stages,
			FPS:           cfg.FPS,
			ReleaseJitter: des.FromMillis(cfg.ReleaseJitterMS),
			WorkVariation: cfg.WorkVariation,
		},
		Stagger: cfg.Stagger,
	})
	tasks, err := workload.Build(specs)
	if err != nil {
		return Result{}, err
	}

	// Offline phase: profile every task's stage WCETs in isolation on the
	// smallest context of the pool (conservative).
	minSMs := cfg.ContextSMs[0]
	for _, s := range cfg.ContextSMs[1:] {
		if s < minSMs {
			minSMs = s
		}
	}
	prof := profile.New(model, cfg.GPU)
	for _, t := range tasks {
		if err := prof.ProfileTask(t, minSMs); err != nil {
			return Result{}, err
		}
	}

	s, err := (&Session{}).scheduler(0, cfg)
	if err != nil {
		return Result{}, err
	}
	if err := s.Attach(eng, dev, tasks); err != nil {
		return Result{}, err
	}

	horizon := des.FromSeconds(cfg.HorizonSec)
	var gen workload.Generator
	gen.Reset(eng, s, cfg.Seed+2)
	gen.SetArrival(cfg.Arrival)
	var log jobLog
	gen.SetSink(&log)
	gen.Start(tasks, horizon)
	eng.RunUntil(horizon)

	sum := metrics.EvaluateSLO(log.jobs, des.FromSeconds(cfg.WarmUpSec), horizon, cfg.SLOMS)
	pm := gpu.DefaultPowerModel()
	res := Result{
		Name:              cfg.Name,
		Tasks:             cfg.NumTasks,
		Summary:           sum,
		DeviceUtilization: dev.Utilization(),
		EnergyJoules:      dev.EnergyJoules(pm),
		AvgPowerW:         dev.AveragePowerW(pm),
	}
	if res.AvgPowerW > 0 {
		res.FPSPerWatt = sum.TotalFPS / res.AvgPowerW
	}
	return res, nil
}
