// Package sched defines the scheduler abstraction shared by SGPRS and the
// baselines, plus the queue primitives they build on: deterministic EDF
// heaps and the paper's three-level priority queue.
package sched

import (
	"sgprs/internal/des"
	"sgprs/internal/gpu"
	"sgprs/internal/rt"
)

// Scheduler is a GPU inference scheduler. The experiment runner attaches it
// to a device and task set, then feeds it released jobs; everything else —
// stage chaining, context/stream selection, queueing — is the scheduler's.
type Scheduler interface {
	// Attach binds the scheduler to the simulation before any release.
	// The scheduler creates its contexts and streams here; tasks must be
	// profiled (WCETs set) before Attach.
	Attach(eng *des.Engine, dev *gpu.Device, tasks []*rt.Task) error
	// OnRelease hands the scheduler a newly released job.
	OnRelease(job *rt.Job, now des.Time)
}

// RecoveryAction is the fault injector's resolved decision for one transient
// kernel fault — the task's rt.RecoveryPolicy after applying run-level
// defaults and the retry budget (an exhausted budget downgrades retry to
// skip). See DESIGN.md §13.
type RecoveryAction int

const (
	// ActionRetry re-executes the faulted stage from scratch after the
	// configured backoff.
	ActionRetry RecoveryAction = iota
	// ActionSkipJob discards the faulted frame.
	ActionSkipJob
	// ActionKillChain discards the faulted frame and the task's held
	// backlog.
	ActionKillChain
)

// Member is a scheduler that can run on a fleet device under fault
// injection: both schedulers implement it.
//
// RecoverKernel is the scheduler half of transient-fault recovery. The fault
// injector aborts the kernel on the device (gpu.Device.Abort — the kernel is
// already detached, bookkeeping unwound, rates recomputed) and then hands the
// scheduler the orphaned kernel to reconcile its own state: queue occupancy,
// in-flight windows, job lifecycle, and the freed stream. stream is the
// stream the kernel was running on before the abort detached it.
//
// EvictAll is the device-loss drain half of fleet failover (DESIGN.md §15).
// The whole device disappeared, so the scheduler must abandon everything —
// abort running kernels, cancel launch-window kernels, flush stream queues,
// drain its own ready queues, and Discard every live job — leaving itself
// quiescent (able to accept releases again after a restart).
type Member interface {
	Scheduler
	RecoverKernel(k *gpu.Kernel, stream *gpu.Stream, action RecoveryAction, backoff des.Time, now des.Time)
	EvictAll(now des.Time)
}
