// Package naive implements the paper's comparison baseline (Section V): a
// simple spatial-partitioning scheduler with no temporal partitioning and no
// seamless context switch.
//
// Each task is statically pinned to one partition at attach time
// (round-robin). A partition executes whole inferences sequentially on a
// single stream: every operation is launched synchronously (the "sequential
// execution in existing frameworks" the paper's introduction blames for
// underutilisation), which adds a fixed per-operation host synchronisation
// gap. When a partition switches from one resident model to another it pays
// a reconfiguration cost that grows with the number of models sharing the
// partition — weights and state must be re-staged, and the working set
// thrashes. SGPRS pays neither cost: stages launch asynchronously on
// pre-created contexts.
//
// Past its saturation point this design exhibits the paper's domino effect:
// with FIFO queueing and no temporal partitioning, one late job delays every
// job behind it, so misses cascade and total FPS degrades rather than
// plateauing.
package naive

import (
	"fmt"
	"slices"
	"strconv"

	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/gpu"
	"sgprs/internal/rt"
	"sgprs/internal/sched"
	"sgprs/internal/slab"
	"sgprs/internal/speedup"
)

// Config parameterises the baseline.
type Config struct {
	// Name labels the instance in reports.
	Name string
	// ContextSMs is the SM allocation per partition (no over-subscription
	// in the naive design: partitions tile the device).
	ContextSMs []int
}

// The calibrated baseline costs, in milliseconds. Whole-network execution
// pays syncOverheadMS, the host-side synchronisation gap per operation
// launch, for every operation of the graph. Switching a partition to a
// different resident model costs reconfigBaseMS plus reconfigPerResidentMS
// per extra model resident on the same partition (working-set thrash).
const (
	syncOverheadMS        = 0.012 // 12 µs per synchronous op launch
	reconfigBaseMS        = 0.30
	reconfigPerResidentMS = 0.03
)

// partition is one static spatial partition.
type partition struct {
	ctx      *gpu.Context
	stream   *gpu.Stream
	tasks    []*rt.Task // resident tasks
	lastTask int        // task ID last executed, -1 initially
}

// Partition and stream names: the table covers the pools the paper and the
// registry use, so naming them builds no string.
var partNames = [...]string{"part0", "part1", "part2", "part3", "part4", "part5", "part6", "part7"}

const streamName = "s0"

// partName names partition i.
func partName(i int) string {
	if i < len(partNames) {
		return partNames[i]
	}
	return "part" + strconv.Itoa(i)
}

// Scheduler is the naive baseline. Configure with Reset, wire with Attach.
type Scheduler struct {
	cfg   Config
	eng   *des.Engine
	dev   *gpu.Device
	parts []*partition
	homes []*partition // by task ID; nil for an unattached ID
	// baseShares caches each task's per-class work vector (by task ID,
	// Graph.WorkByClass()), computed at Attach once per distinct graph.
	// Jobs submit the shared slice — the device only reads it — or, under
	// work variation, a copy scaled into the kernel's own buffer.
	baseShares [][]speedup.WorkShare
	// graph and graphShares are the last graph Attach saw and its work
	// vector, kept across Reset: graphs are immutable, so a rerun over
	// the same graph computes nothing.
	graph       *dnn.Graph
	graphShares []speedup.WorkShare

	// Kernels are borrowed from the device's free list, exactly as the
	// SGPRS scheduler does for stage launches: with the job carried in Arg
	// and the shared begin/done callbacks, a release allocates no kernel
	// and no closures.
	beginFn func(k *gpu.Kernel, now des.Time)
	doneFn  func(k *gpu.Kernel, now des.Time)

	reconfigs uint64
}

// Reset validates cfg and makes the scheduler an unattached baseline under
// it; the zero Scheduler becomes usable this way. A scheduler reused across
// runs keeps its partition structs and per-task slices for the next Attach.
// Reset must not be called while a run still drives the scheduler.
func (s *Scheduler) Reset(cfg Config) error {
	if cfg.Name == "" {
		return fmt.Errorf("naive: config needs a name")
	}
	if len(cfg.ContextSMs) == 0 {
		return fmt.Errorf("naive: config needs at least one partition")
	}
	*s = Scheduler{
		cfg:         cfg,
		parts:       s.parts[:0],
		homes:       s.homes[:0],
		baseShares:  s.baseShares[:0],
		graph:       s.graph,
		graphShares: s.graphShares,
		beginFn:     s.beginFn,
		doneFn:      s.doneFn,
	}
	return nil
}

// Reconfigurations reports how many partition switches were paid.
func (s *Scheduler) Reconfigurations() uint64 { return s.reconfigs }

// Attach creates the partitions and pins each task to one, round-robin.
func (s *Scheduler) Attach(eng *des.Engine, dev *gpu.Device, tasks []*rt.Task) error {
	if s.eng != nil {
		return fmt.Errorf("naive: scheduler %q attached twice", s.cfg.Name)
	}
	maxID := 0
	for _, t := range tasks {
		if t.ID < 0 {
			return fmt.Errorf("naive: task %s has negative ID %d", t, t.ID)
		}
		maxID = max(maxID, t.ID)
	}
	s.eng = eng
	s.dev = dev
	if s.beginFn == nil {
		s.beginFn = s.kernelBegin
		s.doneFn = s.kernelDone
	}
	for i, sms := range s.cfg.ContextSMs {
		ctx, err := dev.CreateContext(partName(i), sms)
		if err != nil {
			return fmt.Errorf("naive: partition: %w", err)
		}
		// A reset scheduler keeps its partitions past len(s.parts).
		var p *partition
		s.parts, p = slab.Reuse(s.parts)
		clear(p.tasks)
		*p = partition{
			ctx:      ctx,
			stream:   ctx.AddStream(streamName, gpu.LowPriority),
			tasks:    p.tasks[:0],
			lastTask: -1,
		}
	}
	s.homes = slices.Grow(s.homes[:0], maxID+1)[:maxID+1]
	clear(s.homes)
	s.baseShares = slices.Grow(s.baseShares[:0], maxID+1)[:maxID+1]
	clear(s.baseShares)
	graph, shares := s.graph, s.graphShares
	for i, t := range tasks {
		if t.Graph != graph {
			graph, shares = t.Graph, t.Graph.WorkByClass()
		}
		s.baseShares[t.ID] = shares
		p := s.parts[i%len(s.parts)]
		p.tasks = append(p.tasks, t)
		s.homes[t.ID] = p
	}
	s.graph, s.graphShares = graph, shares
	return nil
}

// OnRelease submits the whole inference as one synchronous-execution kernel
// on the task's home partition. FIFO order on the stream — no deadlines, no
// priorities, no partition switching.
func (s *Scheduler) OnRelease(job *rt.Job, now des.Time) {
	var p *partition
	if id := job.Task.ID; id >= 0 && id < len(s.homes) {
		p = s.homes[id]
	}
	if p == nil {
		panic(fmt.Sprintf("naive: job %s from unattached task", job))
	}
	for _, st := range job.Stages {
		st.MarkReady(now)
	}

	fixed := float64(syncOverheadMS * float64(len(job.Task.Graph.Ops)))
	if p.lastTask != job.Task.ID {
		fixed += reconfigBaseMS +
			float64(reconfigPerResidentMS*float64(len(p.tasks)-1))
		s.reconfigs++
	}
	p.lastTask = job.Task.ID

	k := s.dev.NewKernel()
	k.ScaleShares(s.baseShares[job.Task.ID], job.WorkScale)
	k.FixedMS = fixed
	k.Arg = job
	k.OnBegin = s.beginFn
	k.OnDone = s.doneFn
	p.stream.Submit(k)
}

// RecoverKernel implements sched.Member: the fault injector has
// aborted one of this scheduler's whole-inference kernels mid-flight and
// hands it back with the resolved recovery decision. A retry re-submits the
// very same kernel — Submit re-derives the remainders from Shares and
// FixedMS, so the inference restarts from scratch (including its fixed
// synchronisation cost) at the back of the partition FIFO. Skip-job and
// kill-chain coincide here: the baseline's only backlog is the partition
// FIFO, which a static partitioner cannot retract entries from — precisely
// the inflexibility the comparison is about.
func (s *Scheduler) RecoverKernel(k *gpu.Kernel, stream *gpu.Stream, action sched.RecoveryAction, backoff des.Time, now des.Time) {
	job := k.Arg.(*rt.Job)
	switch action {
	case sched.ActionRetry:
		if backoff <= 0 {
			stream.Submit(k)
		} else {
			gen := job.Gen
			s.eng.AfterFunc(backoff, "naive.retry", func(now des.Time) {
				// A device-loss drain (EvictAll) may have discarded the
				// job — and the JobPool may have recycled the struct into
				// a different frame — while this retry was backed off.
				if job.Discarded || job.Gen != gen {
					s.dev.FreeKernel(k)
					return
				}
				stream.Submit(k)
			})
		}
	case sched.ActionSkipJob, sched.ActionKillChain:
		s.dev.FreeKernel(k)
		job.Discard(now)
	}
}

// EvictAll implements sched.Member: the device hosting this baseline was
// lost (fleet failover, DESIGN.md §15). Each partition's FIFO is flushed
// first — so the abort-side pump finds nothing to relaunch — then the running
// or launch-window kernel is evicted; every live job is discarded. A
// launch-window kernel is cancelled but not freed: the detached gpu.launch
// event still references it, so it stays out of circulation until the
// device's next Reset reclaims it (see gpu.Device.CancelLaunch).
func (s *Scheduler) EvictAll(now des.Time) {
	for _, p := range s.parts {
		p.stream.Flush(func(k *gpu.Kernel) {
			job := k.Arg.(*rt.Job)
			s.dev.FreeKernel(k)
			if !job.Discarded {
				job.Discard(now)
			}
		})
		if k := p.stream.Running(); k != nil {
			job := k.Arg.(*rt.Job)
			if k.Running() {
				s.dev.Abort(k, now)
				s.dev.FreeKernel(k)
			} else {
				s.dev.CancelLaunch(k)
			}
			if !job.Discarded {
				job.Discard(now)
			}
		}
		p.lastTask = -1
	}
}

// kernelBegin is the shared start callback: the whole inference begins
// executing, so every stage marks started at once.
func (s *Scheduler) kernelBegin(k *gpu.Kernel, now des.Time) {
	job := k.Arg.(*rt.Job)
	for _, st := range job.Stages {
		st.MarkStarted(now)
	}
}

// kernelDone is the shared completion callback: it unpacks the job, hands
// the kernel back to the device's free list (the device guarantees it no
// longer touches it), and retires every stage — the final MarkFinished
// completes the job and notifies its watcher.
func (s *Scheduler) kernelDone(k *gpu.Kernel, now des.Time) {
	job := k.Arg.(*rt.Job)
	s.dev.FreeKernel(k)
	for _, st := range job.Stages {
		st.MarkFinished(now)
	}
}
