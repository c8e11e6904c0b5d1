// Package core implements SGPRS — the Seamless GPU Partitioning Real-Time
// Scheduler, the paper's contribution (Section IV).
//
// Offline phase (before Attach): tasks are partitioned into stages, stage
// WCETs are profiled in isolation, virtual deadlines are assigned in
// proportion to WCET, and the two-level priority assignment marks each
// task's final stage high-priority (package rt + package profile).
//
// Online phase (this package):
//
//  1. Absolute deadline assignment — rt.Task.NewJob stamps every released
//     stage with its absolute virtual deadline.
//  2. Context assignment — a released stage goes to: a context with an empty
//     queue first; otherwise the context that can still meet the stage's
//     deadline with the shortest queue; otherwise the context with the
//     earliest estimated finish time.
//  3. Stage queuing — each context runs two high- and two low-priority CUDA
//     streams (≤ 4 concurrent stages per context). A third, medium, level is
//     assigned online to low-priority stages whose predecessor missed its
//     virtual deadline. Within a level, stages dispatch in EDF order.
//
// Because the context pool is created once up front, moving a stage between
// contexts carries zero reconfiguration cost — the seamless partition switch
// that distinguishes SGPRS from the naive spatial baseline.
package core

import (
	"fmt"

	"sgprs/internal/des"
	"sgprs/internal/gpu"
	"sgprs/internal/rt"
	"sgprs/internal/sched"
	"sgprs/internal/speedup"
)

// Config parameterises an SGPRS instance.
type Config struct {
	// Name labels the instance in reports (e.g. "sgprs-1.5x").
	Name string
	// ContextSMs is the SM allocation of each context in the pool. The
	// sum may exceed the device: that is over-subscription.
	ContextSMs []int
	// HighStreams and LowStreams are the per-context stream counts. The
	// paper fixes them at 2 and 2.
	HighStreams, LowStreams int
	// DisableMediumPromotion turns off the third priority level
	// (ablation A2 in DESIGN.md).
	DisableMediumPromotion bool
	// DisableLateDrop keeps executing stages of jobs whose final deadline
	// has already passed. The paper's scheduler sustains total FPS past
	// the pivot point, which requires not burning GPU time on frames that
	// can no longer meet their deadline; dropping them is the temporal-
	// partitioning discipline the naive baseline lacks. Set this for the
	// ablation that shows the resulting domino effect.
	DisableLateDrop bool
	// MaxInflight caps concurrently admitted frames. Zero sizes the
	// window by Little's law at attach time: with the device retiring at
	// most G single-SM milliseconds of work per wall millisecond (its
	// aggregate gain cap) and an average admitted frame costing W
	// single-SM milliseconds, pipeline latency is ≈ in-flight·W/G, so
	// the largest window whose admitted frames still fit a deadline D is
	// ⌊D·G/W⌋. Admissions beyond the window are held (newest frame per
	// task) and skipped if they go stale — that is what converts
	// overload into skipped frames instead of a backlog of late ones.
	MaxInflight int
	// AssignPolicy selects the context-assignment rule (ablation A3).
	// Default is the paper's three-rule policy.
	AssignPolicy AssignPolicy
	// FlattenPriorities collapses the two-level offline priority
	// assignment into pure EDF across all stages (ablation A1): every
	// stage queues at the low level and promotion is off.
	FlattenPriorities bool
}

// AssignPolicy selects how released stages map to contexts.
type AssignPolicy int

// Context-assignment policies. PolicyPaper is the three-rule policy from
// Section IV-B2; the others are ablation baselines.
const (
	PolicyPaper AssignPolicy = iota
	PolicyShortestQueue
	PolicyEarliestFinish
	PolicyRoundRobin
)

// String names the policy.
func (p AssignPolicy) String() string {
	switch p {
	case PolicyPaper:
		return "paper"
	case PolicyShortestQueue:
		return "shortest-queue"
	case PolicyEarliestFinish:
		return "earliest-finish"
	case PolicyRoundRobin:
		return "round-robin"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// DefaultConfig returns the paper's configuration over the given context
// pool: two high- and two low-priority streams per context, medium promotion
// on, three-rule assignment.
func DefaultConfig(name string, contextSMs []int) Config {
	return Config{
		Name:        name,
		ContextSMs:  contextSMs,
		HighStreams: 2,
		LowStreams:  2,
	}
}

// ctxState is the scheduler's bookkeeping for one pool context.
type ctxState struct {
	ctx   *gpu.Context
	queue sched.MultiLevelQueue
	// pendingWCET is the summed WCET of stages assigned to this context
	// and not yet finished — the scheduler's finish-time estimate.
	pendingWCET des.Time
	// inFlight counts stages dispatched onto streams and not finished.
	inFlight int
}

// estFinish is the conservative serialised finish-time estimate for new work.
func (c *ctxState) estFinish(now des.Time) des.Time { return now.Add(c.pendingWCET) }

// queueLen is the paper's "queue length": stages waiting or running here.
func (c *ctxState) queueLen() int { return c.queue.Len() + c.inFlight }

// Scheduler is an online SGPRS instance. Create with New, wire with Attach.
type Scheduler struct {
	cfg   Config
	eng   *des.Engine
	dev   *gpu.Device
	ctxs  []*ctxState
	tasks []*rt.Task // admission-ordered attach set (EvictAll iteration order)

	rrNext int // round-robin cursor (ablation policy)

	// Per-task frame flow control: each task pipelines one frame at a
	// time. active is the job currently in the stage pipeline; held is
	// the newest released job waiting for the pipeline to free. A fresh
	// release replaces a still-waiting held frame (the replaced frame
	// counts as missed without ever costing GPU time).
	active map[int]*rt.Job
	held   map[int]*rt.Job
	// heldOrder queues task IDs with held frames in arrival order so
	// freed admission slots go to the oldest waiting frame.
	heldOrder   []int
	inflight    int
	maxInflight int
	// ewmaPipeMS tracks recent activation-to-finish latency. A held
	// frame whose remaining deadline budget is below this estimate is
	// skipped at activation time instead of completing hopelessly late.
	ewmaPipeMS float64

	// stateOf maps a kernel's context (by device ID, which is dense and
	// assigned in creation order) back to its ctxState; together with
	// kernels borrowed from the device's free list and the shared doneFn
	// callback, a stage launch allocates no kernel and no closure, and a
	// stage completion is a slice index, not a map probe.
	stateOf []*ctxState
	doneFn  func(k *gpu.Kernel, now des.Time)
	retryFn func(now des.Time, arg any)
	// tokenPool recycles the retry tokens backed-off retries travel in. A
	// token pins the stage pointer together with its job's generation so a
	// retry that outlives a device-loss drain (EvictAll discarded the job;
	// the JobPool may already have recycled the struct) detects staleness
	// at fire time instead of re-enqueuing a foreign frame.
	tokenPool []*retryToken

	// Stats.
	promotions uint64
	assigned   uint64
	dropped    uint64
	replaced   uint64

	// EncodeState scratch (ff.go), reused across fingerprint boundaries.
	encStages []*rt.StageJob
	encIDs    []int
}

// New validates cfg and returns an unattached scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("core: config needs a name")
	}
	if len(cfg.ContextSMs) == 0 {
		return nil, fmt.Errorf("core: config needs at least one context")
	}
	if cfg.HighStreams < 0 || cfg.LowStreams < 0 || cfg.HighStreams+cfg.LowStreams == 0 {
		return nil, fmt.Errorf("core: need at least one stream per context")
	}
	return &Scheduler{
		cfg:    cfg,
		active: map[int]*rt.Job{},
		held:   map[int]*rt.Job{},
	}, nil
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return s.cfg.Name }

// Promotions reports how many stages were promoted to the medium level.
func (s *Scheduler) Promotions() uint64 { return s.promotions }

// Dropped reports how many stages were shed because their job's final
// deadline had already passed at dispatch time.
func (s *Scheduler) Dropped() uint64 { return s.dropped }

// Attach creates the context pool and streams on the device. Tasks must be
// profiled; Attach rejects unprofiled tasks because the online phase cannot
// estimate finish times without WCETs.
func (s *Scheduler) Attach(eng *des.Engine, dev *gpu.Device, tasks []*rt.Task) error {
	if s.eng != nil {
		return fmt.Errorf("core: scheduler %q attached twice", s.cfg.Name)
	}
	if len(tasks) == 0 {
		return fmt.Errorf("core: scheduler %q attached with no tasks", s.cfg.Name)
	}
	for _, t := range tasks {
		if !t.Profiled() {
			return fmt.Errorf("core: task %s not profiled", t)
		}
	}
	s.eng = eng
	s.dev = dev
	s.maxInflight = s.cfg.MaxInflight
	if s.maxInflight == 0 {
		// Little's-law sizing (see Config.MaxInflight): the widest
		// admission window whose frames still fit the tightest
		// deadline, floored at the pool's hardware concurrency.
		minDeadlineMS := 0.0
		avgWorkMS := 0.0
		for _, t := range tasks {
			d := float64(t.Deadline) / float64(des.Millisecond)
			if minDeadlineMS == 0 || d < minDeadlineMS {
				minDeadlineMS = d
			}
			avgWorkMS += t.Graph.TotalWorkMS()
		}
		avgWorkMS /= float64(len(tasks))
		if avgWorkMS > 0 {
			s.maxInflight = int(minDeadlineMS * dev.Config().AggregateGainCap / avgWorkMS)
		}
		streams := (s.cfg.HighStreams + s.cfg.LowStreams) * len(s.cfg.ContextSMs)
		if s.maxInflight < streams {
			s.maxInflight = streams
		}
	}
	if s.maxInflight < 1 {
		s.maxInflight = 1
	}
	s.tasks = tasks
	s.doneFn = s.kernelDone
	s.retryFn = s.retryFire
	for i, sms := range s.cfg.ContextSMs {
		ctx, err := dev.CreateContext(fmt.Sprintf("cp%d", i), sms)
		if err != nil {
			return fmt.Errorf("core: context pool: %w", err)
		}
		for h := 0; h < s.cfg.HighStreams; h++ {
			ctx.AddStream(fmt.Sprintf("hi%d", h), gpu.HighPriority)
		}
		for l := 0; l < s.cfg.LowStreams; l++ {
			ctx.AddStream(fmt.Sprintf("lo%d", l), gpu.LowPriority)
		}
		c := &ctxState{ctx: ctx}
		s.ctxs = append(s.ctxs, c)
		for len(s.stateOf) <= ctx.ID() {
			s.stateOf = append(s.stateOf, nil)
		}
		s.stateOf[ctx.ID()] = c
	}
	return nil
}

// OnRelease implements sched.Scheduler. Each task pipelines one frame at a
// time: if the previous frame is still in the stage pipeline the new one is
// held back, and a fresh release replaces a frame still held (the replaced
// frame counts as missed without ever costing GPU time). This bounded-depth
// flow control is what lets SGPRS sustain total FPS past the pivot point
// instead of dragging an ever-growing backlog of doomed frames behind it —
// the naive baseline's domino effect.
func (s *Scheduler) OnRelease(job *rt.Job, now des.Time) {
	id := job.Task.ID
	if s.active[id] != nil || s.inflight >= s.maxInflight {
		if old := s.held[id]; old != nil {
			s.replaced++
			// The replaced frame will never run: report it abandoned
			// so its owner can record and recycle it.
			old.Discard(now)
		} else {
			s.heldOrder = append(s.heldOrder, id)
		}
		s.held[id] = job
		return
	}
	s.activate(job, now)
}

// activate pushes a job's first stage into the online pipeline.
func (s *Scheduler) activate(job *rt.Job, now des.Time) {
	s.active[job.Task.ID] = job
	s.inflight++
	st := job.Stages[0]
	st.MarkReady(now)
	s.enqueue(st, now)
}

// enqueue applies context assignment (Section IV-B2) and stage queuing
// (IV-B3) to a ready stage, then tries to dispatch.
func (s *Scheduler) enqueue(st *rt.StageJob, now des.Time) {
	if s.cfg.FlattenPriorities {
		st.Level = rt.LevelLow
	}
	c := s.assign(st, now)
	c.queue.Push(st)
	c.pendingWCET += st.Job.Task.StageWCET(st.Index)
	s.assigned++
	s.dispatch(c, now)
}

// assign picks the context for a ready stage.
func (s *Scheduler) assign(st *rt.StageJob, now des.Time) *ctxState {
	switch s.cfg.AssignPolicy {
	case PolicyShortestQueue:
		return s.pickShortestQueue()
	case PolicyEarliestFinish:
		return s.pickEarliestFinish()
	case PolicyRoundRobin:
		c := s.ctxs[s.rrNext%len(s.ctxs)]
		s.rrNext++
		return c
	case PolicyPaper:
		// Falls out to the paper rules below — shared with any policy
		// value Config validation did not catch.
	}
	// The paper's three rules, in order.
	// Rule 1: empty queues first.
	var empty *ctxState
	for _, c := range s.ctxs {
		if c.queueLen() == 0 {
			if empty == nil || c.ctx.SMs() > empty.ctx.SMs() {
				empty = c
			}
		}
	}
	if empty != nil {
		return empty
	}
	// Rule 2: among contexts that still meet the stage deadline, the one
	// with the shortest queue.
	wcet := st.Job.Task.StageWCET(st.Index)
	var meet *ctxState
	for _, c := range s.ctxs {
		if c.estFinish(now).Add(wcet) > st.Deadline {
			continue
		}
		if meet == nil || c.queueLen() < meet.queueLen() ||
			(c.queueLen() == meet.queueLen() && c.pendingWCET < meet.pendingWCET) {
			meet = c
		}
	}
	if meet != nil {
		return meet
	}
	// Rule 3: earliest estimated finish time.
	return s.pickEarliestFinish()
}

func (s *Scheduler) pickShortestQueue() *ctxState {
	best := s.ctxs[0]
	for _, c := range s.ctxs[1:] {
		if c.queueLen() < best.queueLen() {
			best = c
		}
	}
	return best
}

func (s *Scheduler) pickEarliestFinish() *ctxState {
	best := s.ctxs[0]
	for _, c := range s.ctxs[1:] {
		if c.pendingWCET < best.pendingWCET {
			best = c
		}
	}
	return best
}

// dispatch fills idle streams of context c from its three-level queue in
// priority-then-EDF order. Streams are visited in creation order — high-
// priority streams first — so the most urgent stages land on the streams
// with the larger SM share, while dispatch stays work-conserving: an idle
// high-priority stream picks up low work rather than letting a quarter of
// the context's concurrency rot.
func (s *Scheduler) dispatch(c *ctxState, now des.Time) {
	if c.queue.Len() == 0 {
		// Nothing to place: the stream scan below only acts by popping.
		return
	}
	for _, stream := range c.ctx.Streams() {
		// Busy is rechecked every iteration: a gate drop can activate a
		// held frame, which may recursively dispatch onto this stream.
		for !stream.Busy() {
			st := c.queue.Pop()
			if st == nil {
				break
			}
			// Entrance gate: a frame whose FIRST stage has not
			// started by the frame's final deadline is certainly
			// lost — it counts as missed either way, and running
			// it would starve frames that can still make it.
			// Frames already in flight are never abandoned: a
			// late predecessor promotes its successor instead.
			if !s.cfg.DisableLateDrop && st.Index == 0 && now > st.Job.Deadline {
				c.pendingWCET -= st.Job.Task.StageWCET(st.Index)
				if c.pendingWCET < 0 {
					c.pendingWCET = 0
				}
				s.dropped++
				st.Job.Discard(now)
				s.jobOver(st.Job.Task.ID, now)
				continue
			}
			s.launch(c, stream, st, now)
			break
		}
	}
}

// launch submits one stage kernel. Stage executions carry no fixed
// reconfiguration cost: the context pool is pre-created (seamless switch).
// Kernels come from the device's free list and carry the shared
// completion callback, so a launch performs no kernel or closure allocation;
// the per-stage label string is only built when an observer will read it.
func (s *Scheduler) launch(c *ctxState, stream *gpu.Stream, st *rt.StageJob, now des.Time) {
	st.MarkStarted(now)
	c.inFlight++
	task := st.Job.Task
	k := s.dev.NewKernel()
	if s.dev.HasObserver() {
		k.Label = st.Label()
	} else {
		k.Label = "stage"
	}
	k.Shares = scaleShares(task.Stages[st.Index].Shares, st.Job.WorkScale)
	k.Arg = st
	k.OnDone = s.doneFn
	stream.Submit(k)
}

// kernelDone is the shared completion callback: it unpacks the stage, hands
// the kernel back to the device's free list (the device guarantees it no
// longer touches it), and retires the stage. Recycling before onStageDone
// lets the dispatches it triggers reuse the kernel immediately.
func (s *Scheduler) kernelDone(k *gpu.Kernel, now des.Time) {
	st := k.Arg.(*rt.StageJob)
	c := s.stateOf[k.Stream().Context().ID()]
	s.dev.FreeKernel(k)
	s.onStageDone(c, st, now)
}

// scaleShares applies a job's execution-demand scale to stage work. Scale 1
// returns the shared slice untouched (the common case allocates nothing).
func scaleShares(shares []speedup.WorkShare, scale float64) []speedup.WorkShare {
	if scale == 1 || scale <= 0 {
		return shares
	}
	out := make([]speedup.WorkShare, len(shares))
	for i, ws := range shares {
		out[i] = speedup.WorkShare{Class: ws.Class, Work: ws.Work * scale}
	}
	return out
}

// onStageDone retires a stage, releases its successor (with medium promotion
// when the predecessor ran past its virtual deadline), and refills streams.
func (s *Scheduler) onStageDone(c *ctxState, st *rt.StageJob, now des.Time) {
	st.MarkFinished(now)
	c.inFlight--
	c.pendingWCET -= st.Job.Task.StageWCET(st.Index)
	if c.pendingWCET < 0 {
		c.pendingWCET = 0
	}

	if next := st.Index + 1; next < len(st.Job.Stages) {
		ns := st.Job.Stages[next]
		ns.MarkReady(now)
		// A late predecessor promotes the successor to the medium
		// level so the frame can catch up (Section IV-B3).
		if !s.cfg.DisableMediumPromotion && !s.cfg.FlattenPriorities &&
			ns.Level == rt.LevelLow && st.MissedBy(now) {
			ns.Level = rt.LevelMedium
			s.promotions++
		}
		s.enqueue(ns, now)
	} else {
		// Fold the finished job's pipeline latency into the admission
		// estimate before handing out the freed slot.
		pipeMS := (now - st.Job.Stages[0].ReadyAt).Milliseconds()
		const alpha = 0.1
		if s.ewmaPipeMS == 0 {
			s.ewmaPipeMS = pipeMS
		} else {
			s.ewmaPipeMS += alpha * (pipeMS - s.ewmaPipeMS)
		}
		s.jobOver(st.Job.Task.ID, now)
	}
	s.dispatch(c, now)
}

// RecoverKernel implements sched.FaultHandler: the fault injector has
// aborted one of this scheduler's stage kernels mid-flight (the device
// already evicted it and recomputed rates) and hands back the orphaned
// kernel with the resolved recovery decision. The launch's charges against
// the context — its in-flight slot and pending WCET — are unwound first, so
// a retry re-enters the pipeline through the ordinary enqueue path (fresh
// context assignment, queue discipline, entrance gate) exactly like a newly
// ready stage, and a discarded frame leaves no residue in the finish-time
// estimates.
func (s *Scheduler) RecoverKernel(k *gpu.Kernel, stream *gpu.Stream, action sched.RecoveryAction, backoff des.Time, now des.Time) {
	st := k.Arg.(*rt.StageJob)
	c := s.stateOf[stream.Context().ID()]
	s.dev.FreeKernel(k)
	c.inFlight--
	c.pendingWCET -= st.Job.Task.StageWCET(st.Index)
	if c.pendingWCET < 0 {
		c.pendingWCET = 0
	}
	switch action {
	case sched.ActionRetry:
		// Re-execution restarts the stage from scratch; the backoff
		// models fault detection and relaunch latency.
		if backoff <= 0 {
			s.enqueue(st, now)
		} else {
			tok := s.getToken()
			tok.st, tok.gen = st, st.Job.Gen
			s.eng.AfterArg(backoff, "core.retry", s.retryFn, tok)
		}
	case sched.ActionKillChain:
		// Shed the task's backlog too: a held frame of the faulted task
		// dies with the faulted frame.
		if h := s.held[st.Job.Task.ID]; h != nil {
			s.held[st.Job.Task.ID] = nil
			s.dropped++
			h.Discard(now)
		}
		fallthrough
	case sched.ActionSkipJob:
		s.dropped++
		st.Job.Discard(now)
		s.jobOver(st.Job.Task.ID, now)
	}
	s.dispatch(c, now)
}

// retryToken carries a backed-off retry through the event queue alongside the
// generation of the job it belongs to (see Scheduler.tokenPool).
type retryToken struct {
	st  *rt.StageJob
	gen uint64
}

// getToken pops a retry token from the free list or allocates one.
func (s *Scheduler) getToken() *retryToken {
	if n := len(s.tokenPool); n > 0 {
		tok := s.tokenPool[n-1]
		s.tokenPool[n-1] = nil
		s.tokenPool = s.tokenPool[:n-1]
		return tok
	}
	return &retryToken{}
}

// retryFire is the shared backed-off retry callback. A stale token — the job
// was discarded, or the struct has since been recycled into a different frame
// (generation mismatch) — dissolves silently; otherwise the stage re-enters
// the pipeline through the ordinary enqueue path.
func (s *Scheduler) retryFire(now des.Time, arg any) {
	tok := arg.(*retryToken)
	st, gen := tok.st, tok.gen
	tok.st = nil
	s.tokenPool = append(s.tokenPool, tok)
	if st.Job.Discarded || st.Job.Gen != gen {
		return
	}
	s.enqueue(st, now)
}

// EvictAll implements sched.Evictor: the device hosting this scheduler was
// lost (fleet failover, DESIGN.md §15), so every resident kernel is aborted
// or cancelled, every queue drained, and every live frame discarded. Streams
// are flushed before their running kernel is evicted so the abort-side pump
// finds nothing to relaunch. Launch-window kernels (dispatched, not started)
// are cancelled but not freed: the detached gpu.launch event still references
// them, so reusing one within the run would let a later stage race the stale
// start; the device's next Reset reclaims them.
// On return the scheduler is quiescent and can accept releases again after a
// device restart.
func (s *Scheduler) EvictAll(now des.Time) {
	for _, c := range s.ctxs {
		for _, stream := range c.ctx.Streams() {
			stream.Flush(s.dev.FreeKernel)
			if k := stream.Running(); k != nil {
				if k.Running() {
					s.dev.Abort(k, now)
					s.dev.FreeKernel(k)
				} else {
					s.dev.CancelLaunch(k)
				}
			}
		}
		for st := c.queue.Pop(); st != nil; st = c.queue.Pop() {
		}
		c.pendingWCET = 0
		c.inFlight = 0
	}
	for _, t := range s.tasks {
		if j := s.active[t.ID]; j != nil {
			s.active[t.ID] = nil
			s.inflight--
			s.dropped++
			if !j.Discarded {
				j.Discard(now)
			}
		}
		if h := s.held[t.ID]; h != nil {
			s.held[t.ID] = nil
			s.dropped++
			h.Discard(now)
		}
	}
	s.heldOrder = s.heldOrder[:0]
}

// jobOver frees a task's pipeline slot and hands freed admission capacity to
// the oldest held frame whose task is idle.
func (s *Scheduler) jobOver(taskID int, now des.Time) {
	s.active[taskID] = nil
	s.inflight--
	kept := s.heldOrder[:0]
	for i, id := range s.heldOrder {
		if s.inflight >= s.maxInflight {
			kept = append(kept, s.heldOrder[i:]...)
			break
		}
		h := s.held[id]
		switch {
		case h == nil:
			// Stale entry; drop it.
		case s.active[id] != nil:
			// Task still busy; keep its place in line.
			kept = append(kept, id)
		case !s.cfg.DisableLateDrop &&
			now.Add(des.FromMillis(s.ewmaPipeMS)) > h.Deadline:
			// The frame's remaining budget is below the current
			// pipeline latency: it would finish late. Skipping
			// it now (it counts as missed either way) lets the
			// task's next frame start fresh and on time.
			s.held[id] = nil
			s.dropped++
			h.Discard(now)
		default:
			s.held[id] = nil
			s.activate(h, now)
		}
	}
	s.heldOrder = kept
}
