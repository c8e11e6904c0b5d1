package sim

import (
	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/fault"
	"sgprs/internal/gpu"
	"sgprs/internal/memo"
	"sgprs/internal/metrics"
	"sgprs/internal/profile"
	"sgprs/internal/rt"
	"sgprs/internal/sched"
	"sgprs/internal/speedup"
	"sgprs/internal/workload"
)

// Session executes simulation runs over reused infrastructure: one
// discrete-event engine (whose event free list survives across runs), one
// device (scratch buffers and slice capacities retained), one job pool, one
// streaming metrics collector, a profiler, and a cache of built task sets
// keyed by workload shape. A sweep that previously rebuilt all of this per
// point now pays for it once per worker, so steady-state sweep points run
// the online phase with almost no allocation.
//
// Reuse is invisible in the results: des.Engine.Reset and gpu.Device.Reset
// restore fresh-equivalent state (clock, sequence numbers, stochastic
// streams), recycled jobs and events are fully reinitialised before reuse,
// and cached task sets are re-profiled per run from the memoized WCET
// tables. TestSessionReuseBitIdentical pins Session.Run == RunWith for
// mixed-configuration sequences.
//
// A Session is single-threaded, like the engine it wraps: the parallel
// runner gives each worker its own. The zero value is not usable; call
// NewSession.
type Session struct {
	cache *memo.Cache

	eng       *des.Engine
	dev       *gpu.Device
	pool      rt.JobPool
	collector *metrics.Collector

	prof    *profile.Profiler
	profCfg gpu.Config

	// fleetDevs caches the extra fleet devices (positions 1..Devices-1;
	// position 0 is s.dev) across fleet runs, Reset per run like s.dev.
	fleetDevs []*gpu.Device

	tasks map[taskSetKey][]*rt.Task

	// Fast-forward state (fastforward.go), reused across runs: the
	// fingerprint build buffer, the arena of stored boundary fingerprints
	// with their hash index, and the live-job warp dedup set. ffHash and
	// ffTrace are test hooks: ffHash overrides the fingerprint hash (the
	// collision-safety tests truncate it to force collisions) and ffTrace,
	// when set, fires at every release boundary — on the fast-forward and
	// the reference path alike — so the lockstep equivalence tests can
	// compare collector state boundary by boundary.
	ffBuf    []byte
	ffArena  []byte
	ffEnts   []ffEntry
	ffHashes map[uint64]int
	ffJobs   map[*rt.Job]bool
	ffHash   func([]byte) uint64
	ffTrace  func(now des.Time)
}

// taskSetKey identifies a built task set: everything Build derives tasks
// from. The graph is compared by identity, which the offline cache also
// relies on; with the default memoized reference graph, equal configurations
// share one pointer.
type taskSetKey struct {
	graph    *dnn.Graph
	tasks    int
	stages   int
	fps      float64
	jitterMS float64
	workVar  float64
	stagger  bool
}

// NewSession builds a session around the given offline-phase cache. A nil
// cache reproduces the uncached reference path: the reference graph is
// rebuilt and every task profiled from scratch each run (and, because task
// sets are keyed by graph identity, never reused across runs).
func NewSession(cache *memo.Cache) *Session {
	return &Session{
		cache: cache,
		eng:   des.NewEngine(),
		tasks: map[taskSetKey][]*rt.Task{},
	}
}

// Run executes one simulation on the session's reused infrastructure and
// returns its metrics, exactly as RunWith would for the same configuration
// and cache.
func (s *Session) Run(cfg RunConfig) (Result, error) {
	if err := cfg.Normalize(); err != nil {
		return Result{}, err
	}
	model := defaultModel()

	// The engine reset drops every pending event, the last references to
	// the previous run's in-flight jobs and kernels; only then may the
	// pool and the devices reclaim them (DESIGN.md §8).
	s.eng.Reset()
	s.pool.Reclaim()
	if s.dev == nil {
		dev, err := gpu.NewDevice(s.eng, model, cfg.GPU)
		if err != nil {
			return Result{}, err
		}
		s.dev = dev
	} else if err := s.dev.Reset(cfg.GPU); err != nil {
		return Result{}, err
	}
	if cfg.Observer != nil {
		s.dev.SetObserver(cfg.Observer)
	}

	var graph *dnn.Graph
	if s.cache != nil {
		key := memo.GraphKey{Model: model, Name: "resnet18-ref", SMs: speedup.DeviceSMs, TargetMS: ReferenceLatencyMS}
		graph = s.cache.Graph(key, func() *dnn.Graph { return ReferenceGraph(model) })
	} else {
		graph = ReferenceGraph(model)
	}

	tasks, err := s.taskSet(graph, cfg)
	if err != nil {
		return Result{}, err
	}

	// Offline phase: profile stage WCETs in isolation on the smallest
	// context of the pool (conservative). Cached task sets are
	// re-profiled every run — the pool's minimum may differ between
	// configurations sharing a task shape — but with a cache that is a
	// table lookup, not a measurement.
	minSMs := cfg.ContextSMs[0]
	for _, c := range cfg.ContextSMs[1:] {
		if c < minSMs {
			minSMs = c
		}
	}
	if s.prof == nil || s.profCfg != cfg.GPU {
		s.prof = profile.New(model, cfg.GPU)
		s.profCfg = cfg.GPU
	}
	if s.cache != nil {
		if err := s.cache.ProfileTasks(s.prof, tasks, minSMs); err != nil {
			return Result{}, err
		}
	} else {
		for _, t := range tasks {
			if err := s.prof.ProfileTask(t, minSMs); err != nil {
				return Result{}, err
			}
		}
	}

	if cfg.Devices > 1 {
		return s.runFleet(cfg, model, tasks)
	}

	scheduler, err := buildScheduler(cfg)
	if err != nil {
		return Result{}, err
	}
	if err := scheduler.Attach(s.eng, s.dev, tasks); err != nil {
		return Result{}, err
	}

	horizon := des.FromSeconds(cfg.HorizonSec)
	warmUp := des.FromSeconds(cfg.WarmUpSec)
	if s.collector == nil {
		s.collector = metrics.NewCollector(warmUp, horizon)
	} else {
		s.collector.Reset(warmUp, horizon)
	}
	s.collector.SetSLO(cfg.SLOMS)

	// Fault injection (DESIGN.md §13): the injector draws from a dedicated
	// forked RNG stream, so installing it never perturbs the workload or
	// contention-jitter cursors; with cfg.Faults nil none of this runs and
	// the dynamics are bit-identical to the pre-fault code path.
	var inj *fault.Injector
	if cfg.Faults != nil {
		handler, _ := scheduler.(sched.FaultHandler)
		seed := cfg.Faults.Seed
		if seed == 0 {
			seed = cfg.Seed + 3
		}
		inj, err = fault.NewInjector(cfg.Faults, s.eng, s.dev, handler, seed)
		if err != nil {
			return Result{}, err
		}
		inj.Install(s.collector)
	}

	gen := workload.NewGeneratorSeeded(s.eng, scheduler, cfg.Seed+2)
	gen.SetSink(s.collector)
	gen.UsePool(&s.pool)
	gen.SetArrival(cfg.Arrival)
	gen.Start(tasks, horizon)
	ff := s.runToHorizon(cfg, scheduler, gen, tasks, warmUp, horizon)

	sum := s.collector.Summary()
	if inj != nil {
		// The collector filled the Degraded* fields of sum.Faults; the
		// injection counters live in the injector.
		st := inj.Stats()
		sum.Faults.Overruns = st.Overruns
		sum.Faults.OverrunMassMS = st.OverrunMassMS
		sum.Faults.TransientFaults = st.TransientFaults
		sum.Faults.Retries = st.Retries
		sum.Faults.Recoveries = st.Recoveries
		sum.Faults.SkippedJobs = st.SkippedJobs
		sum.Faults.KilledChains = st.KilledChains
	}
	pm := gpu.DefaultPowerModel()
	res := Result{
		Name:              cfg.Name,
		Tasks:             cfg.NumTasks,
		Summary:           sum,
		FastForward:       ff,
		DeviceUtilization: s.dev.Utilization(),
		EnergyJoules:      s.dev.EnergyJoules(pm),
		AvgPowerW:         s.dev.AveragePowerW(pm),
	}
	if res.AvgPowerW > 0 {
		res.FPSPerWatt = sum.TotalFPS / res.AvgPowerW
	}
	return res, nil
}

// taskSet returns the built task set for the configuration, reusing a
// previous run's when the workload shape matches. Tasks are immutable during
// the online phase (schedulers and jobs only read them) and re-profiled per
// run, so sharing them across runs cannot alter results.
//
// Without an offline cache the reference graph is rebuilt per run, so the
// graph-keyed lookup could never hit; caching would only accumulate dead
// entries for the session's lifetime. The uncached session builds fresh and
// stores nothing.
func (s *Session) taskSet(graph *dnn.Graph, cfg RunConfig) ([]*rt.Task, error) {
	key := taskSetKey{
		graph:    graph,
		tasks:    cfg.NumTasks,
		stages:   cfg.Stages,
		fps:      cfg.FPS,
		jitterMS: cfg.ReleaseJitterMS,
		workVar:  cfg.WorkVariation,
		stagger:  cfg.Stagger,
	}
	if tasks, ok := s.tasks[key]; ok {
		return tasks, nil
	}
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
		return nil, err
	}
	if s.cache != nil {
		s.tasks[key] = tasks
	}
	return tasks, nil
}
