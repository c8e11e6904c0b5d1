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
	"slices"
	"strconv"

	"sgprs/internal/des"
	"sgprs/internal/gpu"
	"sgprs/internal/rt"
	"sgprs/internal/sched"
	"sgprs/internal/slab"
)

// Config parameterises an SGPRS instance.
type Config struct {
	// Name labels the instance in reports (e.g. "sgprs-1.5x").
	Name string
	// ContextSMs is the SM allocation of each context in the pool. The
	// sum may exceed the device: that is over-subscription.
	ContextSMs []int
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
	// FlattenPriorities collapses the two-level offline priority
	// assignment into pure EDF across all stages (ablation A1): every
	// stage queues at the low level and promotion is off.
	FlattenPriorities bool
}

// Every pool context runs the paper's two high- and two low-priority streams.
const highStreams, lowStreams = 2, 2

// Stream names, by priority and index within it. Pool contexts are named
// "cp" plus their index; the table covers the pools the paper and the
// registry use, so naming them builds no string.
var (
	highNames = [highStreams]string{"hi0", "hi1"}
	lowNames  = [lowStreams]string{"lo0", "lo1"}
	ctxNames  = [...]string{"cp0", "cp1", "cp2", "cp3", "cp4", "cp5", "cp6", "cp7"}
)

// ctxName names pool context i.
func ctxName(i int) string {
	if i < len(ctxNames) {
		return ctxNames[i]
	}
	return "cp" + strconv.Itoa(i)
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

// Scheduler is an online SGPRS instance. Configure the zero value with
// Reset, wire it with Attach.
type Scheduler struct {
	cfg   Config
	eng   *des.Engine
	dev   *gpu.Device
	ctxs  []*ctxState
	tasks []*rt.Task // admission-ordered attach set (EvictAll iteration order)

	// Per-task frame flow control, indexed by task ID (see taskFlow).
	flows []taskFlow
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

// taskFlow is one task's frame flow control: each task pipelines one frame
// at a time. active is the job currently in the stage pipeline; held is the
// newest released job waiting for the pipeline to free. A fresh release
// replaces a still-waiting held frame (the replaced frame counts as missed
// without ever costing GPU time). wasActive and wasHeld record whether the
// task ever had an active or a held frame this run: the fast-forward
// fingerprint lists exactly those tasks (EncodeState).
type taskFlow struct {
	active, held       *rt.Job
	wasActive, wasHeld bool
}

// Reset validates cfg and makes the scheduler an unattached SGPRS instance
// under it; the zero Scheduler becomes usable this way. It keeps its
// allocations — context states with their queue arrays, the per-task flow
// slots, the retry tokens and the encoding scratch — so a session that
// reuses it across runs attaches without allocating them again. It must not
// be called while a run still drives the scheduler.
func (s *Scheduler) Reset(cfg Config) error {
	if cfg.Name == "" {
		return fmt.Errorf("core: config needs a name")
	}
	if len(cfg.ContextSMs) == 0 {
		return fmt.Errorf("core: config needs at least one context")
	}
	*s = Scheduler{
		cfg:       cfg,
		ctxs:      s.ctxs[:0],
		flows:     s.flows[:0],
		heldOrder: s.heldOrder[:0],
		stateOf:   s.stateOf[:0],
		doneFn:    s.doneFn,
		retryFn:   s.retryFn,
		tokenPool: s.tokenPool,
		encStages: s.encStages[:0],
		encIDs:    s.encIDs[:0],
	}
	return nil
}

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
	maxID := 0
	for _, t := range tasks {
		if !t.Profiled() {
			return fmt.Errorf("core: task %s not profiled", t)
		}
		if t.ID < 0 {
			return fmt.Errorf("core: task %s has negative ID %d", t, t.ID)
		}
		maxID = max(maxID, t.ID)
	}
	s.flows = slices.Grow(s.flows[:0], maxID+1)[:maxID+1]
	clear(s.flows)
	s.eng = eng
	s.dev = dev
	// Little's-law sizing of the admission window: with the device
	// retiring at most G single-SM milliseconds of work per wall
	// millisecond (its aggregate gain cap) and an average admitted frame
	// costing W single-SM milliseconds, pipeline latency is
	// ≈ in-flight·W/G, so the widest window whose admitted frames still
	// fit the tightest deadline D is ⌊D·G/W⌋, floored at the pool's
	// hardware concurrency. Admissions beyond the window are held (newest
	// frame per task) and skipped if they go stale — that is what
	// converts overload into skipped frames instead of a backlog of late
	// ones.
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
	if streams := (highStreams + lowStreams) * len(s.cfg.ContextSMs); s.maxInflight < streams {
		s.maxInflight = streams
	}
	s.tasks = tasks
	if s.doneFn == nil {
		s.doneFn = s.kernelDone
		s.retryFn = s.retryFire
	}
	for i, sms := range s.cfg.ContextSMs {
		ctx, err := dev.CreateContext(ctxName(i), sms)
		if err != nil {
			return fmt.Errorf("core: context pool: %w", err)
		}
		for _, name := range highNames {
			ctx.AddStream(name, gpu.HighPriority)
		}
		for _, name := range lowNames {
			ctx.AddStream(name, gpu.LowPriority)
		}
		// A reset scheduler keeps its context states past len(s.ctxs);
		// reuse one, with its queue arrays.
		var c *ctxState
		s.ctxs, c = slab.Reuse(s.ctxs)
		c.queue.Reset()
		c.ctx, c.pendingWCET, c.inFlight = ctx, 0, 0
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
	f := &s.flows[id]
	if f.active != nil || s.inflight >= s.maxInflight {
		if old := f.held; old != nil {
			s.replaced++
			// The replaced frame will never run: report it abandoned
			// so its owner can record and recycle it.
			old.Discard(now)
		} else {
			s.heldOrder = append(s.heldOrder, id)
		}
		f.held, f.wasHeld = job, true
		return
	}
	s.activate(job, now)
}

// activate pushes a job's first stage into the online pipeline.
func (s *Scheduler) activate(job *rt.Job, now des.Time) {
	f := &s.flows[job.Task.ID]
	f.active, f.wasActive = job, true
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
// completion callback, so a launch performs no kernel or closure allocation.
func (s *Scheduler) launch(c *ctxState, stream *gpu.Stream, st *rt.StageJob, now des.Time) {
	st.MarkStarted(now)
	c.inFlight++
	task := st.Job.Task
	k := s.dev.NewKernel()
	k.ScaleShares(task.Stages[st.Index].Shares, st.Job.WorkScale)
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
			s.ewmaPipeMS += float64(alpha * (pipeMS - s.ewmaPipeMS))
		}
		s.jobOver(st.Job.Task.ID, now)
	}
	s.dispatch(c, now)
}

// RecoverKernel implements sched.Member: the fault injector has
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
		if f := &s.flows[st.Job.Task.ID]; f.held != nil {
			h := f.held
			f.held = nil
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

// EvictAll implements sched.Member: the device hosting this scheduler was
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
		f := &s.flows[t.ID]
		if j := f.active; j != nil {
			f.active = nil
			s.inflight--
			s.dropped++
			if !j.Discarded {
				j.Discard(now)
			}
		}
		if h := f.held; h != nil {
			f.held = nil
			s.dropped++
			h.Discard(now)
		}
	}
	s.heldOrder = s.heldOrder[:0]
}

// jobOver frees a task's pipeline slot and hands freed admission capacity to
// the oldest held frame whose task is idle.
func (s *Scheduler) jobOver(taskID int, now des.Time) {
	s.flows[taskID].active = nil
	s.inflight--
	kept := s.heldOrder[:0]
	for i, id := range s.heldOrder {
		if s.inflight >= s.maxInflight {
			kept = append(kept, s.heldOrder[i:]...)
			break
		}
		f := &s.flows[id]
		h := f.held
		switch {
		case h == nil:
			// Stale entry; drop it.
		case f.active != nil:
			// Task still busy; keep its place in line.
			kept = append(kept, id)
		case !s.cfg.DisableLateDrop &&
			now.Add(des.FromMillis(s.ewmaPipeMS)) > h.Deadline:
			// The frame's remaining budget is below the current
			// pipeline latency: it would finish late. Skipping
			// it now (it counts as missed either way) lets the
			// task's next frame start fresh and on time.
			f.held = nil
			s.dropped++
			h.Discard(now)
		default:
			f.held = nil
			s.activate(h, now)
		}
	}
	s.heldOrder = kept
}
