// Package memo is the cross-run offline-phase cache: it memoizes the two
// deterministic, purely-functional computations every simulation run repeats
// — building + calibrating the reference DNN graph, and profiling a task
// shape's per-stage WCETs in isolation — so a sweep that executes hundreds
// of runs, on any number of fresh sessions, performs each distinct offline
// computation exactly once. The third, cutting the graph into its pipeline
// stage chain, is memoized by dnn.Partition on the graph itself, so every
// session built on one cached graph shares its chains.
//
// # Why cache hits cannot change results
//
// Both cached computations are pure functions of their cache key:
//
//   - The calibrated graph depends only on the speedup model and the
//     calibration target (SM count, target latency). Graph construction and
//     dnn.Calibrate draw no randomness.
//   - A WCET profile runs each stage kernel alone on a private device
//     (profile.Profiler.measure). Isolation makes every stochastic device
//     input dead: the profiler zeroes ContentionJitter and
//     ContentionPenalty, a single kernel never trips the aggregate gain cap
//     (it binds only with ≥ 2 concurrent kernels), and the per-kernel jitter
//     draw is consumed but never applied at demand ratio ≤ 1. The
//     measurement is therefore independent of gpu.Config.Seed,
//     AggregateGainCap, and the contention coefficients — which is exactly
//     why those fields are excluded from the profile key (see profileKey).
//
// Replaying a memoized result is bit-identical to recomputing it, so cached
// and uncached runs produce byte-for-byte equal outputs; the equality tests
// in internal/sim pin this for both paper scenarios.
//
// # Work per shape, not per task
//
// A profile lookup is keyed by the chain's shape fingerprint (appendShape), a
// length-prefixed binary encoding of every stage's work shares. Tasks built
// together share one stage chain, so ProfileTasks fingerprints and looks up
// a chain once and hands its entry to every following task on the same
// slice; each task still counts as one hit or miss in Stats. The fingerprint
// is built in a stack buffer and looked up without becoming a string, so
// only a shape's first lookup allocates its key. rt.Task.SetWCETs copies the
// table into the task and returns at once when the task already holds an
// equal one, so a warm session's re-profiling allocates nothing.
//
// # Concurrency
//
// A Cache is safe for concurrent use by the parallel experiment runner's
// workers. Each entry carries its own sync.Once (keyed singleflight): the
// first worker to need a key computes it while later workers block on that
// entry only, then share the result. Shared values (graphs, WCET tables)
// are immutable after construction — rt.Task.SetWCETs copies — so handing
// one instance to many concurrent runs is safe.
package memo

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/gpu"
	"sgprs/internal/profile"
	"sgprs/internal/rt"
	"sgprs/internal/speedup"
)

// GraphKey identifies one calibrated reference graph. Name distinguishes
// network families; SMs and TargetMS are the calibration anchor
// (dnn.Calibrate arguments).
type GraphKey struct {
	Model    *speedup.Model
	Name     string
	SMs      float64
	TargetMS float64
}

type graphEntry struct {
	once sync.Once
	g    *dnn.Graph
}

// profileKey identifies the measurement set-up of a WCET profile table: a
// model, device config, context size and WCET margin; the table of one task
// shape measured under it is found by the shape's fingerprint
// (Cache.profiles). The gpu.Config inside is normalized by
// profileConfigKey: fields that provably cannot influence an isolated
// single-kernel measurement (Seed, ContentionJitter, ContentionPenalty,
// AggregateGainCap — see the package comment) are zeroed so that e.g. runs
// that differ only in seed or a gain-cap calibration grid still share one
// profile per shape.
type profileKey struct {
	model  *speedup.Model
	cfg    gpu.Config
	sms    int
	margin uint64 // math.Float64bits of the profiler margin
}

type profileEntry struct {
	once  sync.Once
	wcets []des.Time
	err   error
}

// profileConfigKey zeroes the gpu.Config fields an isolated measurement
// cannot observe.
func profileConfigKey(cfg gpu.Config) gpu.Config {
	cfg.Seed = 0
	cfg.ContentionJitter = 0
	cfg.ContentionPenalty = 0
	cfg.AggregateGainCap = 0
	return cfg
}

// appendShape appends the fingerprint of a stage chain's execution-relevant
// shape to buf: for each stage, its per-class work shares (exact float
// bits). Two tasks with equal fingerprints are indistinguishable to the
// profiler, whatever graph or task objects they came from. The encoding is
// length-prefixed binary — uvarint stage count, then per stage a uvarint
// share count and per share a uvarint class and the 8 little-endian bytes of
// math.Float64bits(work) — so it parses back unambiguously: distinct shapes
// can never collide, and nothing is hashed.
func appendShape(buf []byte, stages []*dnn.Stage) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(stages)))
	for _, st := range stages {
		buf = binary.AppendUvarint(buf, uint64(len(st.Shares)))
		for _, sh := range st.Shares {
			buf = binary.AppendUvarint(buf, uint64(sh.Class))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sh.Work))
		}
	}
	return buf
}

// Stats counts cache traffic. Hits are lookups served from a completed (or
// in-flight) entry; misses are lookups that created the entry and ran the
// computation.
type Stats struct {
	GraphHits, GraphMisses     uint64
	ProfileHits, ProfileMisses uint64
}

// String renders "offline cache: graphs 1 misses / 47 hits, profiles 4
// misses / 380 hits".
func (s Stats) String() string {
	return fmt.Sprintf("offline cache: graphs %d misses / %d hits, profiles %d misses / %d hits",
		s.GraphMisses, s.GraphHits, s.ProfileMisses, s.ProfileHits)
}

// Cache memoizes offline-phase computations. The zero value is not usable;
// call New. See the package comment for the safety argument.
type Cache struct {
	mu     sync.Mutex
	graphs map[GraphKey]*graphEntry
	// profiles holds the tables by set-up, then by shape fingerprint.
	profiles map[profileKey]map[string]*profileEntry

	graphHits, graphMisses     atomic.Uint64
	profileHits, profileMisses atomic.Uint64
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{
		graphs:   map[GraphKey]*graphEntry{},
		profiles: map[profileKey]map[string]*profileEntry{},
	}
}

var defaultCache = New()

// Default returns the process-wide cache shared by sim.Run and the parallel
// experiment runner.
func Default() *Cache { return defaultCache }

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		GraphHits:     c.graphHits.Load(),
		GraphMisses:   c.graphMisses.Load(),
		ProfileHits:   c.profileHits.Load(),
		ProfileMisses: c.profileMisses.Load(),
	}
}

// Graph returns the memoized graph for key, calling build exactly once per
// key across all goroutines. The returned graph is shared: callers must
// treat it as immutable (in particular, never Scale/Calibrate it again).
func (c *Cache) Graph(key GraphKey, build func() *dnn.Graph) *dnn.Graph {
	c.mu.Lock()
	e, ok := c.graphs[key]
	if !ok {
		e = &graphEntry{}
		c.graphs[key] = e
	}
	c.mu.Unlock()
	if ok {
		c.graphHits.Add(1)
	} else {
		c.graphMisses.Add(1)
	}
	e.once.Do(func() { e.g = build() })
	return e.g
}

// ProfileTasks installs per-stage WCETs on every task, measuring each
// distinct task shape exactly once — within this call, across runs, and
// across concurrent runner workers — instead of once per task. sms is the
// context size to profile on (the pool's smallest). The memoized table is
// installed through rt.Task.SetWCETs, which copies, so tasks never alias
// cache memory.
//
// Tasks built on one graph and stage count share one stage chain
// (dnn.Partition memoizes it on the graph), so a task
// whose chain is the previous task's slice reuses that task's entry without
// fingerprinting it again. The reuse still counts as a profile hit, exactly
// as the repeated lookup did.
func (c *Cache) ProfileTasks(p *profile.Profiler, tasks []*rt.Task, sms int) error {
	key := profileKey{
		model:  p.Model(),
		cfg:    profileConfigKey(p.Config()),
		sms:    sms,
		margin: math.Float64bits(p.Margin),
	}
	var (
		chain []*dnn.Stage
		e     *profileEntry
		buf   [512]byte
	)
	for _, t := range tasks {
		if sameChain(t.Stages, chain) {
			c.profileHits.Add(1)
		} else {
			shape := appendShape(buf[:0], t.Stages)
			c.mu.Lock()
			shapes := c.profiles[key]
			if shapes == nil {
				shapes = map[string]*profileEntry{}
				c.profiles[key] = shapes
			}
			var ok bool
			e, ok = shapes[string(shape)]
			if !ok {
				e = &profileEntry{}
				shapes[string(shape)] = e
			}
			c.mu.Unlock()
			if ok {
				c.profileHits.Add(1)
			} else {
				c.profileMisses.Add(1)
			}
			chain = t.Stages
			e.once.Do(func() { e.wcets, e.err = measureWCETs(p, t, sms) })
			if e.err != nil {
				return e.err
			}
		}
		if err := t.SetWCETs(e.wcets); err != nil {
			return fmt.Errorf("memo: task %s: %w", t.Name, err)
		}
	}
	return nil
}

// sameChain reports whether a and b are the same stage chain: one slice, not
// merely equal contents.
func sameChain(a, b []*dnn.Stage) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// measureWCETs is the uncached per-shape measurement: every stage in
// isolation at sms SMs, exactly what profile.Profiler.ProfileTask measures.
func measureWCETs(p *profile.Profiler, t *rt.Task, sms int) ([]des.Time, error) {
	wcets := make([]des.Time, len(t.Stages))
	for j, st := range t.Stages {
		c, err := p.StageWCET(st, sms)
		if err != nil {
			return nil, fmt.Errorf("memo: task %s stage %d: %w", t.Name, j, err)
		}
		wcets[j] = c
	}
	return wcets, nil
}
