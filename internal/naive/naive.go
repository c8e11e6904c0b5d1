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

	"sgprs/internal/des"
	"sgprs/internal/gpu"
	"sgprs/internal/rt"
	"sgprs/internal/sched"
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

// Scheduler is the naive baseline. Create with New, wire with Attach.
type Scheduler struct {
	cfg   Config
	eng   *des.Engine
	dev   *gpu.Device
	parts []*partition
	homes map[int]*partition // task ID → partition
	// baseShares caches each task's per-class work vector (task ID →
	// Graph.WorkByClass()), computed once at Attach. Jobs without work
	// variation submit the shared slice directly — the device only reads
	// it — so the per-release map-and-slice rebuild is gone.
	baseShares map[int][]speedup.WorkShare

	// Kernels are borrowed from the device's free list, exactly as the
	// SGPRS scheduler does for stage launches: with the job carried in Arg
	// and the shared begin/done callbacks, a release allocates no kernel
	// and no closures.
	beginFn func(k *gpu.Kernel, now des.Time)
	doneFn  func(k *gpu.Kernel, now des.Time)

	reconfigs uint64
}

// New validates cfg and returns an unattached scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("naive: config needs a name")
	}
	if len(cfg.ContextSMs) == 0 {
		return nil, fmt.Errorf("naive: config needs at least one partition")
	}
	return &Scheduler{cfg: cfg, homes: map[int]*partition{}}, nil
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return s.cfg.Name }

// Reconfigurations reports how many partition switches were paid.
func (s *Scheduler) Reconfigurations() uint64 { return s.reconfigs }

// Attach creates the partitions and pins each task to one, round-robin.
func (s *Scheduler) Attach(eng *des.Engine, dev *gpu.Device, tasks []*rt.Task) error {
	if s.eng != nil {
		return fmt.Errorf("naive: scheduler %q attached twice", s.cfg.Name)
	}
	s.eng = eng
	s.dev = dev
	s.beginFn = s.kernelBegin
	s.doneFn = s.kernelDone
	for i, sms := range s.cfg.ContextSMs {
		ctx, err := dev.CreateContext(fmt.Sprintf("part%d", i), sms)
		if err != nil {
			return fmt.Errorf("naive: partition: %w", err)
		}
		s.parts = append(s.parts, &partition{
			ctx:      ctx,
			stream:   ctx.AddStream("s0", gpu.LowPriority),
			lastTask: -1,
		})
	}
	s.baseShares = map[int][]speedup.WorkShare{}
	for i, t := range tasks {
		s.baseShares[t.ID] = t.Graph.WorkByClass()
		p := s.parts[i%len(s.parts)]
		p.tasks = append(p.tasks, t)
		s.homes[t.ID] = p
	}
	return nil
}

// OnRelease submits the whole inference as one synchronous-execution kernel
// on the task's home partition. FIFO order on the stream — no deadlines, no
// priorities, no partition switching.
func (s *Scheduler) OnRelease(job *rt.Job, now des.Time) {
	p, ok := s.homes[job.Task.ID]
	if !ok {
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

	shares := s.baseShares[job.Task.ID]
	if job.WorkScale != 1 && job.WorkScale > 0 {
		scaled := make([]speedup.WorkShare, len(shares))
		for i, ws := range shares {
			scaled[i] = speedup.WorkShare{Class: ws.Class, Work: ws.Work * job.WorkScale}
		}
		shares = scaled
	}
	k := s.dev.NewKernel()
	if s.dev.HasObserver() {
		k.Label = job.Label()
	} else {
		k.Label = "job"
	}
	k.Shares = shares
	k.FixedMS = fixed
	k.Arg = job
	k.OnBegin = s.beginFn
	k.OnDone = s.doneFn
	p.stream.Submit(k)
}

// RecoverKernel implements sched.FaultHandler: the fault injector has
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

// EvictAll implements sched.Evictor: the device hosting this baseline was
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
