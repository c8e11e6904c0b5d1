// Package workload builds periodic task sets and drives job releases.
//
// The paper's evaluation uses identical periodic ResNet18 tasks at 30 fps
// with explicit deadlines, six stages each; this package generalises that to
// arbitrary mixes of networks, rates, stage counts, and release offsets.
package workload

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/rt"
)

// TaskSpec describes one periodic task to generate.
type TaskSpec struct {
	Name   string
	Graph  *dnn.Graph
	Stages int
	FPS    float64
	// DeadlineFactor scales the relative deadline as a fraction of the
	// period; 1.0 (implicit deadline) when zero.
	DeadlineFactor float64
	Offset         des.Time
	// ReleaseJitter bounds a uniform random delay added to every release
	// (sporadic arrivals with a minimum inter-arrival of Period).
	ReleaseJitter des.Time
	// WorkVariation is the relative standard deviation of per-job
	// execution demand around the profiled nominal (truncated normal,
	// clamped to [1−2σ, 1+3σ] with a floor of 0.5). Zero means every job
	// costs exactly its nominal work; positive values model WCET
	// overruns the offline profile did not capture.
	WorkVariation float64
}

// Options names the parameters of Replicate.
type Options struct {
	// Count is the number of task copies.
	Count int
	// Spec is the task template each copy starts from.
	Spec TaskSpec
	// Stagger spreads release offsets evenly across the period;
	// false reproduces the paper's synchronous releases.
	Stagger bool
}

// Replicate returns Count copies of one spec, optionally staggering release
// offsets evenly across the period (Stagger false reproduces the paper's
// synchronous releases — the worst case for contention).
//
// A non-positive FPS cannot yield a period, so staggered offsets are only
// derived when the rate is valid; the invalid spec itself flows through
// unchanged for Build to reject with a proper error (rather than an Inf/NaN
// period corrupting the offsets here, before validation ever runs).
func Replicate(o Options) []TaskSpec {
	out := make([]TaskSpec, o.Count)
	// Every copy's name is a slice of one string, "name-0name-1…".
	var num [20]byte
	var b strings.Builder
	b.Grow(o.Count * (len(o.Spec.Name) + 1 + len(strconv.AppendInt(num[:0], int64(o.Count), 10))))
	for i := range out {
		b.WriteString(o.Spec.Name)
		b.WriteByte('-')
		b.Write(strconv.AppendInt(num[:0], int64(i), 10))
	}
	all, lo := b.String(), 0
	for i := range out {
		hi := lo + len(o.Spec.Name) + 1 + len(strconv.AppendInt(num[:0], int64(i), 10))
		out[i] = o.Spec
		out[i].Name = all[lo:hi]
		lo = hi
	}
	if o.Stagger && o.Spec.FPS > 0 {
		period := des.FromSeconds(1 / o.Spec.FPS)
		for i := range out {
			out[i].Offset = des.Time(int64(period) * int64(i) / int64(o.Count))
		}
	}
	return out
}

// Build materialises rt.Tasks from specs: partitions each graph into its
// stage chain and wires periods, deadlines, and offsets. WCETs remain unset;
// run the profiler before attaching a scheduler.
//
// Specs sharing a graph and stage count — the common Replicate case —
// share one partition: the balanced-partition DP runs once per distinct
// (graph, stages) pair and the resulting stage chain is handed to every
// task. Stages are immutable after Partition (schedulers only read Shares
// and WorkMS), so the sharing is invisible to results.
func Build(specs []TaskSpec) ([]*rt.Task, error) {
	return BuildWith(specs, dnn.Partition)
}

// BuildWith is Build drawing each distinct (graph, stages) pair's chain from
// partition, which must return what dnn.Partition returns for the same
// arguments: memo.Cache.Partition does, once per cache rather than once
// per call, so task sets built on one cache share their chains.
func BuildWith(specs []TaskSpec, partition func(*dnn.Graph, int) ([]*dnn.Stage, error)) ([]*rt.Task, error) {
	type partKey struct {
		graph  *dnn.Graph
		stages int
	}
	partitions := map[partKey][]*dnn.Stage{}
	// The tasks sit in one slice and their WCET and virtual-deadline
	// tables in another: Partition returns exactly the stage count asked
	// for, so the tables' size is known up front.
	set := make([]rt.Task, len(specs))
	var stageCount int
	for _, sp := range specs {
		stageCount += max(sp.Stages, 0)
	}
	timing := make([]des.Time, 2*stageCount)
	tasks := make([]*rt.Task, 0, len(specs))
	for i, sp := range specs {
		// NaN compares false against everything, so "fps <= 0" alone
		// would wave NaN through into a NaN period; test positivity in
		// the form that fails for NaN and reject Inf alongside it.
		if !(sp.FPS > 0) || math.IsInf(sp.FPS, 0) {
			return nil, fmt.Errorf("workload: task %q fps %v must be positive and finite", sp.Name, sp.FPS)
		}
		if sp.Graph == nil {
			return nil, fmt.Errorf("workload: task %q has no graph", sp.Name)
		}
		key := partKey{graph: sp.Graph, stages: sp.Stages}
		stages, ok := partitions[key]
		if !ok {
			var err error
			stages, err = partition(sp.Graph, sp.Stages)
			if err != nil {
				return nil, fmt.Errorf("workload: task %q: %w", sp.Name, err)
			}
			partitions[key] = stages
		}
		period := des.FromSeconds(1 / sp.FPS)
		df := sp.DeadlineFactor
		if df == 0 {
			df = 1
		}
		if !(df > 0 && df <= 1) {
			return nil, fmt.Errorf("workload: task %q deadline factor %v must be in (0,1]", sp.Name, df)
		}
		deadline := des.Time(float64(period) * df)
		t := &set[i]
		n := min(2*len(stages), len(timing))
		if err := t.Init(i, sp.Name, sp.Graph, stages, period, deadline, sp.Offset, timing[:n:n]); err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		timing = timing[n:]
		if sp.ReleaseJitter < 0 || !(sp.WorkVariation >= 0) || math.IsInf(sp.WorkVariation, 0) {
			return nil, fmt.Errorf("workload: task %q jitter/variation must be non-negative and finite", sp.Name)
		}
		if sp.ReleaseJitter >= period {
			return nil, fmt.Errorf("workload: task %q release jitter %v must stay below the period %v", sp.Name, sp.ReleaseJitter, period)
		}
		t.ReleaseJitter = sp.ReleaseJitter
		t.WorkVariation = sp.WorkVariation
		tasks = append(tasks, t)
	}
	return tasks, nil
}

// JobSink consumes the streaming job lifecycle: one JobReleased per job, in
// release order, followed by exactly one of the rt.JobWatcher callbacks
// (JobDone or JobDiscarded). metrics.Collector is the canonical sink.
type JobSink interface {
	JobReleased(j *rt.Job, now des.Time)
	rt.JobWatcher
}

// ReleaseHandler receives every released job: a scheduler, or the fleet
// dispatching to one per device.
type ReleaseHandler interface {
	OnRelease(job *rt.Job, now des.Time)
}

// Generator schedules periodic releases on an engine. Release jitter and
// per-job work variation draw from a seeded stream forked per task, so
// adding a task never perturbs another task's draws.
//
// Jobs are never retained: every released job is streamed to the JobSink
// (SetSink), if any, and attaching an rt.JobPool (UsePool) recycles each
// job the moment its lifecycle ends, so live memory stays O(in-flight jobs).
//
// A generator can drive many runs: Reset rewires it and Start reuses the
// release chains of the previous run, RNG streams and arrival processes
// included, so a reused generator starts a run without allocating.
type Generator struct {
	eng     *des.Engine
	sched   ReleaseHandler
	rng     des.RNG
	sink    JobSink
	pool    *rt.JobPool
	arrival Arrival
	chains  []releaseChain
	// labels caches each task's release event label, built the first
	// time the generator starts the task.
	labels map[*rt.Task]string
}

// Reset wires the generator to the engine and scheduler for a new run with
// the given seed, which feeds jitter and work-variation draws (generators
// for deterministic workloads may pass anything); the zero Generator becomes
// usable this way. The sink, pool and arrival process are cleared; the
// release chains' storage and the label cache are kept.
func (g *Generator) Reset(eng *des.Engine, s ReleaseHandler, seed uint64) {
	*g = Generator{
		eng:    eng,
		sched:  s,
		rng:    *des.NewRNG(seed).Fork(0x30B5),
		chains: g.chains[:0],
		labels: g.labels,
	}
}

// SetSink streams the job lifecycle to s. Must be called before Start.
func (g *Generator) SetSink(s JobSink) { g.sink = s }

// UsePool recycles every job through p as soon as it completes or is
// discarded. Must be called before Start.
func (g *Generator) UsePool(p *rt.JobPool) { g.pool = p }

// SetArrival sets the arrival process every task releases under (nil means
// Periodic{}). Each task gets its own process, started with the task's RNG
// stream — the same stream work variation draws from. Must be called before
// Start.
func (g *Generator) SetArrival(a Arrival) { g.arrival = a }

// JobDone implements rt.JobWatcher: it forwards the completion to the sink,
// then hands the job to the pool. Ordering matters — the sink must record
// the job before the pool may reuse its struct.
func (g *Generator) JobDone(j *rt.Job, now des.Time) {
	if g.sink != nil {
		g.sink.JobDone(j, now)
	}
	if g.pool != nil {
		g.pool.Put(j)
	}
}

// JobDiscarded implements rt.JobWatcher for abandoned (dropped/replaced)
// frames; see JobDone.
func (g *Generator) JobDiscarded(j *rt.Job, now des.Time) {
	if g.sink != nil {
		g.sink.JobDiscarded(j, now)
	}
	if g.pool != nil {
		g.pool.Put(j)
	}
}

// Start schedules all releases of the task set up to the horizon. Releases
// exactly at the horizon are excluded (their deadline would extend past the
// measured window). Each task's arrival process emits its release instants;
// without SetArrival that is Periodic{}, under which tasks with
// ReleaseJitter release sporadically (a uniform delay in [0, jitter) on top
// of the periodic instant). Tasks with WorkVariation stamp each job with a
// truncated-normal work scale.
func (g *Generator) Start(tasks []*rt.Task, horizon des.Time) {
	arrival := g.arrival
	if arrival == nil {
		arrival = Periodic{}
	}
	// One release is in flight per task at any instant (the next is
	// scheduled from the current one's callback), so a single mutable chain
	// struct serves the task's whole release sequence; the events themselves
	// are detached and recycle through the engine's pool. The chains share
	// one slab, so pending events may hold pointers into it. The chain is
	// also the unit the fast-forward layer warps and fingerprints (see
	// SteadyPeriod, Warp, and DESIGN.md §12). The slab is kept across
	// runs; each chain holds its RNG stream and its process in place.
	g.chains = slices.Grow(g.chains[:0], len(tasks))[:len(tasks)]
	g.cacheLabels(tasks)
	for i, t := range tasks {
		c := &g.chains[i]
		*c = releaseChain{
			g:       g,
			t:       t,
			rng:     *g.rng.Fork(uint64(t.ID) + 1),
			label:   g.labels[t],
			horizon: horizon,
		}
		c.proc = arrival.start(&c.slot, ArrivalTask{
			Index:   t.ID,
			Count:   len(tasks),
			Period:  t.Period,
			Offset:  t.Offset,
			Jitter:  t.ReleaseJitter,
			Horizon: horizon,
		}, &c.rng)
		c.scheduleNext()
	}
}

// cacheLabels builds the release labels, "release:" plus the task name, of
// the tasks the generator has not started before, all cut from one string.
func (g *Generator) cacheLabels(tasks []*rt.Task) {
	const prefix = "release:"
	size := 0
	for _, t := range tasks {
		if _, ok := g.labels[t]; !ok {
			size += len(prefix) + len(t.Name)
		}
	}
	if size == 0 {
		return
	}
	if g.labels == nil {
		g.labels = map[*rt.Task]string{}
	}
	var b strings.Builder
	b.Grow(size)
	for _, t := range tasks {
		if _, ok := g.labels[t]; !ok {
			g.labels[t] = "" // claimed: a repeated task is written once
			b.WriteString(prefix)
			b.WriteString(t.Name)
		}
	}
	all, lo := b.String(), 0
	for _, t := range tasks {
		if g.labels[t] == "" {
			hi := lo + len(prefix) + len(t.Name)
			g.labels[t] = all[lo:hi]
			lo = hi
		}
	}
}

// releaseChain is the mutable state of one task's release sequence: the
// arrival process, the next frame index, and the previous emission (the
// monotonicity clamp).
type releaseChain struct {
	g       *Generator
	t       *rt.Task
	rng     des.RNG
	label   string
	proc    arrivalProcess
	idx     int
	last    des.Time
	horizon des.Time
	slot    procSlot
}

// fireChain releases one job and schedules the task's next release. The
// horizon guard is unreachable during plain simulation (scheduleNext never
// queues an event at or past the horizon); it exists for warped pending
// events — a release that lands at or past the horizon after a fast-forward
// warp must not fire, exactly as full simulation would never have scheduled
// it.
func fireChain(now des.Time, arg any) {
	c := arg.(*releaseChain)
	if now >= c.horizon {
		return
	}
	g, t := c.g, c.t
	var job *rt.Job
	if g.pool != nil {
		job = g.pool.Get(t, c.idx, now)
	} else {
		job = t.NewJob(c.idx, now)
	}
	if t.WorkVariation > 0 {
		job.WorkScale = c.rng.TruncNormal(
			1, t.WorkVariation,
			math.Max(0.5, 1-2*t.WorkVariation),
			1+float64(3*t.WorkVariation))
	}
	job.Watcher = g
	if g.sink != nil {
		g.sink.JobReleased(job, now)
	}
	g.sched.OnRelease(job, now)
	c.idx++
	c.scheduleNext()
}

func (c *releaseChain) scheduleNext() {
	at, ok := c.proc.Next()
	if !ok {
		return
	}
	// Processes promise non-decreasing instants; clamp instead of letting a
	// marginally early emission (a rounding artifact) trip the engine's
	// no-past-events panic.
	if at < c.last {
		at = c.last
	}
	c.last = at
	if at >= c.horizon {
		return
	}
	c.g.eng.AfterArg(at-c.g.eng.Now(), c.label, fireChain, c)
}

// SteadyPeriod reports whether every release chain is deterministic and
// periodic with one shared spacing — the workload half of fast-forward
// eligibility: zero release jitter, zero work variation, and a Periodic
// arrival process. Any stochastic process (Poisson, bursty, MMPP, diurnal)
// or finite trace makes the run ineligible, as does a mix of spacings. Must
// be called after Start.
func (g *Generator) SteadyPeriod() (des.Time, bool) {
	if len(g.chains) == 0 {
		return 0, false
	}
	var period des.Time
	for i := range g.chains {
		c := &g.chains[i]
		if c.t.ReleaseJitter != 0 || c.t.WorkVariation != 0 {
			return 0, false
		}
		pp, ok := c.proc.(*periodicProcess)
		if !ok {
			return 0, false
		}
		if period == 0 {
			period = pp.period
		} else if pp.period != period {
			return 0, false
		}
	}
	return period, period > 0
}

// Warp translates every release chain forward by delta = frames · period:
// frame indices advance by frames (so future releases and job indices match
// what full simulation of the skipped interval would have produced — the
// k-th release instant is an absolute function of the index) and the
// monotonicity clamp shifts with the clock. Only valid for chains
// SteadyPeriod accepted; their RNG streams are never consumed, so no draws
// need replaying.
func (g *Generator) Warp(delta des.Time, frames int) {
	for i := range g.chains {
		c := &g.chains[i]
		c.idx += frames
		c.last += delta
		pp := c.proc.(*periodicProcess)
		pp.idx += frames
		pp.last += delta
	}
}

// ForEachChain reports each task's ID, next frame index, and previous
// emission instant. The index is the base the fast-forward fingerprint
// encodes pending job indices relative to (two boundaries one cycle apart
// must encode identically, and absolute frame indices grow by the cycle
// length); the last emission is the monotonicity clamp, dynamic state the
// fingerprint encodes relative to the boundary.
func (g *Generator) ForEachChain(f func(taskID, nextIdx int, last des.Time)) {
	for i := range g.chains {
		f(g.chains[i].t.ID, g.chains[i].idx, g.chains[i].last)
	}
}

// EventTag resolves a pending release event's identity for the engine
// fingerprint: chains of replicated tasks share one label ("release:" plus
// the task name), so the tag distinguishes them by task ID.
func (g *Generator) EventTag(arg any) (uint64, bool) {
	if c, ok := arg.(*releaseChain); ok && c.g == g {
		return uint64(c.t.ID) + 1, true
	}
	return 0, false
}
