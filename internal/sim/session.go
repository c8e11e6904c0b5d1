package sim

import (
	"sgprs/internal/cluster"
	"sgprs/internal/core"
	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/fault"
	"sgprs/internal/gpu"
	"sgprs/internal/memo"
	"sgprs/internal/metrics"
	"sgprs/internal/naive"
	"sgprs/internal/profile"
	"sgprs/internal/rt"
	"sgprs/internal/speedup"
	"sgprs/internal/stats"
	"sgprs/internal/workload"
)

// Session executes simulation runs over reused infrastructure: one
// discrete-event engine (whose event free list survives across runs), the
// fleet's devices (scratch buffers, kernel arenas, contexts and streams
// retained) and its dispatcher, the per-device schedulers, the release
// generator, one job pool, one streaming metrics collector, a profiler, and
// a cache of built task sets keyed by workload shape. A sweep that
// previously rebuilt all of this per point now pays for it once per worker,
// so a warm session runs a sweep point with a handful of allocations,
// whatever its task count (DESIGN.md §8).
//
// Reuse is invisible in the results: des.Engine.Reset and gpu.Device.Reset
// restore fresh-equivalent state (clock, sequence numbers, stochastic
// streams), recycled jobs and events are fully reinitialised before reuse,
// and cached task sets are re-profiled per run from the memoized WCET
// tables. TestSessionReuseBitIdentical pins a reused Session to a fresh one
// for mixed-configuration sequences.
//
// A Session is single-threaded, like the engine it wraps: the parallel
// runner gives each worker its own. The zero value is not usable; call
// NewSession.
type Session struct {
	cache *memo.Cache

	eng       *des.Engine
	pool      rt.JobPool
	collector *metrics.Collector

	prof    *profile.Profiler
	profCfg gpu.Config

	// Every run is a fleet (fleet.go); a single GPU is a fleet of one. devs
	// holds the devices by fleet position, members and injs the per-device
	// schedulers and fault injectors, and fleet the dispatcher. All of them
	// are kept across runs and reset per run, so a run allocates none anew:
	// injs is truncated to the run's faulted devices, and slab.Reuse takes
	// the injectors past its length back.
	devs    []*gpu.Device
	members []cluster.Member
	injs    []*fault.Injector
	fleet   cluster.Fleet

	// The online set-up is kept too: the schedulers by fleet position, one
	// of each kind (Session.scheduler), and the release generator with its
	// chains, RNG streams and arrival processes.
	sgprs  []*core.Scheduler
	naives []*naive.Scheduler
	gen    workload.Generator

	tasks map[taskSetKey][]*rt.Task

	// Fast-forward state (fastforward.go), reused across runs: the
	// fingerprint build buffer, the arena of stored boundary fingerprints
	// with their hash index, each task's next frame index at the boundary
	// being fingerprinted, and the live-job warp dedup set. ffHash and
	// ffTrace are test hooks: ffHash overrides the fingerprint hash (the
	// collision-safety tests truncate it to force collisions) and ffTrace,
	// when set, fires at every release boundary — on the fast-forward and
	// the reference path alike — so the lockstep equivalence tests can
	// compare collector state boundary by boundary.
	ffBuf    []byte
	ffArena  []byte
	ffEnts   []ffEntry
	ffHashes map[uint64]int
	ffNext   map[int]int
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

// NewSession builds a session around the given offline-phase cache, which
// must not be nil. The cache serves the reference graph, its stage chains
// and every WCET profile; results are bit-identical to rebuilding,
// re-partitioning and re-profiling from scratch (memo's package comment has
// the argument; the tests in this package pin it against the uncached batch
// reference).
func NewSession(cache *memo.Cache) *Session {
	return &Session{
		cache: cache,
		eng:   des.NewEngine(),
		tasks: map[taskSetKey][]*rt.Task{},
	}
}

// Run executes one simulation on the session's reused infrastructure and
// returns its metrics, exactly as a fresh session would for the same
// configuration.
func (s *Session) Run(cfg RunConfig) (Result, error) {
	if err := cfg.Normalize(); err != nil {
		return Result{}, err
	}
	model := defaultModel()

	// The engine reset drops every pending event, the last references to
	// the previous run's in-flight jobs and kernels; only then may the
	// pool and the devices reclaim them (DESIGN.md §8). Device i runs at
	// cfg.GPU.Seed+i so a fleet's stochastic streams decorrelate.
	s.eng.Reset()
	s.pool.Reclaim()
	for i := range max(cfg.Devices, 1) {
		gi := cfg.GPU
		gi.Seed += uint64(i)
		if i < len(s.devs) {
			if err := s.devs[i].Reset(gi); err != nil {
				return Result{}, err
			}
		} else {
			d, err := gpu.NewDevice(s.eng, model, gi)
			if err != nil {
				return Result{}, err
			}
			d.SetID(i)
			s.devs = append(s.devs, d)
		}
		if cfg.Observer != nil {
			s.devs[i].AddHook(cfg.Observer)
		}
	}

	key := memo.GraphKey{Model: model, Name: "resnet18-ref", SMs: speedup.DeviceSMs, TargetMS: ReferenceLatencyMS}
	graph := s.cache.Graph(key, func() *dnn.Graph { return ReferenceGraph(model) })

	tasks, err := s.taskSet(graph, cfg)
	if err != nil {
		return Result{}, err
	}

	// Offline phase: profile stage WCETs in isolation on the smallest
	// context of the pool (conservative). Cached task sets are
	// re-profiled every run — the pool's minimum may differ between
	// configurations sharing a task shape — but that is a table lookup
	// in the cache, not a measurement.
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
	if err := s.cache.ProfileTasks(s.prof, tasks, minSMs); err != nil {
		return Result{}, err
	}

	return s.runFleet(cfg, tasks)
}

// Stats is the host-side work of a session's last run: what the engine,
// the fleet's rate engines, the fast-forward replay and the metric fold
// did to compute it. It measures host cost, not simulated behaviour, so it
// stays out of Result, whose digests pin the simulation's output; the root
// package's work gate pins it per workload instead.
type Stats struct {
	// Fired counts the events the engine fired and HeapPushes the detached
	// events it scheduled off the monotone lane (des.HeapStats).
	Fired      uint64
	HeapPushes uint64
	// Sweeps and Visits are the rate sweeps the devices ran and the
	// kernels those sweeps visited, summed over the fleet
	// (gpu.Device.RecomputeStats).
	Sweeps uint64
	Visits uint64
	// RepeatCounts are the accounting adds the devices' fast-forward
	// replay performed one by one (Adds, over Cycles explicit cycles)
	// against the multi-cycle binade jumps it took instead (Jumps, see
	// stats.RepeatedSum), summed over the fleet.
	stats.RepeatCounts
	// SortFallbacks counts the queue-depth inputs metrics.Collector.Summary
	// had to sort, SortedResponses the response times it sorted, and
	// ReplayWrites the slots metrics.Collector.Replay wrote across its four
	// per-job arrays.
	SortFallbacks   int
	SortedResponses int
	ReplayWrites    int
}

// Stats reports the last run's host-side work (see Stats).
func (s *Session) Stats() Stats {
	st := Stats{Fired: s.eng.Fired(), HeapPushes: s.eng.HeapStats().Pushes}
	for _, m := range s.members {
		sweeps, visits := m.Dev.RecomputeStats()
		st.Sweeps += sweeps
		st.Visits += visits
		r := m.Dev.ReplayStats()
		st.Adds += r.Adds
		st.Cycles += r.Cycles
		st.Jumps += r.Jumps
	}
	if s.collector != nil {
		st.SortFallbacks = s.collector.SortFallbacks()
		st.SortedResponses = s.collector.SortedResponses()
		st.ReplayWrites = s.collector.ReplayWrites()
	}
	return st
}

// taskSet returns the built task set for the configuration, reusing a
// previous run's when the workload shape matches. Tasks are immutable during
// the online phase (schedulers and jobs only read them) and re-profiled per
// run, so sharing them across runs cannot alter results.
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
	tasks, err := workload.BuildWith(specs, s.cache.Partition)
	if err != nil {
		return nil, err
	}
	s.tasks[key] = tasks
	return tasks, nil
}
