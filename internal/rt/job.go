package rt

import (
	"fmt"
	"strconv"

	"sgprs/internal/des"
)

// Job is one periodic instance (one frame) of a task.
type Job struct {
	Task     *Task
	Index    int      // instance number, 0-based
	Release  des.Time // absolute release instant
	Deadline des.Time // absolute deadline dᵢ = release + Dᵢ

	// WorkScale multiplies the job's execution demand relative to the
	// profiled nominal (1.0). Values above 1 model WCET overruns and
	// input-dependent execution-time variation; schedulers apply it when
	// building kernels but never see it in advance — exactly like real
	// inference-time variation.
	WorkScale float64

	Stages []*StageJob

	FinishedAt des.Time
	Done       bool

	// Retries counts how many times a stage of this job was re-executed
	// after an injected transient fault (RecoverRetry); the fault injector
	// owns it. A job that completes with Retries > 0 is a recovery.
	Retries int

	// Discarded marks a job the scheduler permanently abandoned (a
	// dropped or replaced frame), with the instant Discard recorded.
	// The batch metrics path reads these fields off retained jobs where
	// the streaming collector observes the JobDiscarded callback.
	Discarded   bool
	DiscardedAt des.Time

	// Watcher, when non-nil, observes the job's end of life: completion
	// (fired by MarkFinished of the last stage) and abandonment (fired by
	// Discard). The workload generator installs itself here to stream
	// metrics and recycle finished jobs without retaining them.
	Watcher JobWatcher

	// MetricsSlot is the streaming metrics collector's released-order
	// index for this job, or -1 when the job lies outside the measurement
	// window. Owned by metrics.Collector; everything else treats it as
	// opaque.
	MetricsSlot int

	// BacklogSlot is the collector's admission-backlog interval index,
	// assigned to every released job (unlike MetricsSlot, which covers
	// only in-window ones). Owned by metrics.Collector; -1 until the
	// release is recorded.
	BacklogSlot int

	// pooled marks a job that currently sits in a JobPool free list; a
	// second Put before the next Get is a use-after-recycle bug.
	pooled bool

	// Gen counts the struct's reincarnations through a JobPool: initJob
	// increments it each time the struct is (re)initialised as a new
	// instance. Deferred references — a backed-off retry event holding a
	// *StageJob across a device-loss drain — capture it alongside the
	// pointer and compare at fire time, because a recycled struct can look
	// valid (Discarded reset to false) while belonging to a different frame.
	Gen uint64
}

// JobWatcher observes the two ways a job's lifecycle can end. Callbacks run
// synchronously on the simulation goroutine, from inside the scheduler's own
// call stack: a watcher may record the job and hand it to a JobPool (deferred
// reuse keeps the fields readable until the next release), but must not
// mutate it.
type JobWatcher interface {
	// JobDone fires exactly once, when the job's final stage finishes.
	JobDone(j *Job, now des.Time)
	// JobDiscarded fires when a scheduler permanently abandons an
	// unfinished job (a dropped or replaced frame); the job will never
	// complete and no further callback follows.
	JobDiscarded(j *Job, now des.Time)
}

// StageJob is one stage instance τᵢʲ of a job, the unit the online scheduler
// dispatches. Its absolute deadline dᵢʲ is assigned at release from the
// relative virtual deadlines (Section IV-B1).
type StageJob struct {
	Job      *Job
	Index    int      // stage index j
	Deadline des.Time // absolute virtual deadline dᵢʲ

	Level      Level // current logical priority (may be promoted to medium)
	ReadyAt    des.Time
	StartedAt  des.Time
	FinishedAt des.Time
	Ready      bool
	Started    bool
	Finished   bool
}

// NewJob releases instance index of the task at the given instant, assigning
// every stage its absolute virtual deadline: stage j's deadline is the
// release plus the cumulative virtual deadlines through j, so the last
// stage's deadline coincides with the job deadline. The task must have been
// profiled first.
func (t *Task) NewJob(index int, release des.Time) *Job {
	j := &Job{}
	t.initJob(j, index, release)
	return j
}

// initJob (re)initialises j as instance index of the task, reusing j's Stages
// slice and StageJob structs when their capacity allows — the JobPool's reuse
// path. When it does not, the stages are allocated as one slab behind one
// pointer slice: two allocations whatever the stage count. Every field of the
// job and of each stage is written, so a recycled job is indistinguishable
// from a freshly allocated one.
func (t *Task) initJob(j *Job, index int, release des.Time) {
	if !t.Profiled() {
		panic(fmt.Sprintf("rt: NewJob on unprofiled task %s", t))
	}
	n := len(t.Stages)
	stages := j.Stages[:cap(j.Stages)]
	if len(stages) < n {
		slab := make([]StageJob, n)
		stages = make([]*StageJob, n)
		for s := range stages {
			stages[s] = &slab[s]
		}
	}
	stages = stages[:n]
	*j = Job{
		Task:        t,
		Index:       index,
		Release:     release,
		Deadline:    release.Add(t.Deadline),
		WorkScale:   1,
		MetricsSlot: -1,
		BacklogSlot: -1,
		Stages:      stages,
		Gen:         j.Gen + 1,
	}
	var cum des.Time
	for s, sj := range stages {
		cum += t.virtualDls[s]
		*sj = StageJob{
			Job:      j,
			Index:    s,
			Deadline: release.Add(cum),
			Level:    t.StageLevel(s),
		}
	}
}

// MarkReady records that the stage's predecessor finished (or, for stage 0,
// that the job was released) and it is eligible for dispatch.
func (s *StageJob) MarkReady(now des.Time) {
	s.Ready = true
	s.ReadyAt = now
}

// MarkStarted records dispatch onto the GPU.
func (s *StageJob) MarkStarted(now des.Time) {
	s.Started = true
	s.StartedAt = now
}

// MarkFinished records completion; for the last stage it completes the job
// and notifies the job's watcher.
func (s *StageJob) MarkFinished(now des.Time) {
	s.Finished = true
	s.FinishedAt = now
	if s.Index == len(s.Job.Stages)-1 {
		j := s.Job
		j.Done = true
		j.FinishedAt = now
		if j.Watcher != nil {
			j.Watcher.JobDone(j, now)
		}
	}
}

// Discard notifies the job's watcher that the scheduler has permanently
// abandoned this unfinished job — a dropped or replaced frame that will
// never complete. Discarding a completed job is a scheduler bug.
func (j *Job) Discard(now des.Time) {
	if j.Done {
		panic(fmt.Sprintf("rt: discard of completed job %s", j))
	}
	j.Discarded = true
	j.DiscardedAt = now
	if j.Watcher != nil {
		j.Watcher.JobDiscarded(j, now)
	}
}

// MissedBy reports whether the stage's deadline has passed at the instant
// now without the stage having finished.
func (s *StageJob) MissedBy(now des.Time) bool {
	if s.Finished {
		return s.FinishedAt > s.Deadline
	}
	return now > s.Deadline
}

// Missed reports whether the job finished after its deadline (or has not
// finished although the deadline passed at instant now).
func (j *Job) Missed(now des.Time) bool {
	if j.Done {
		return j.FinishedAt > j.Deadline
	}
	return now > j.Deadline
}

// ResponseTime reports finish − release for completed jobs, and 0 otherwise.
func (j *Job) ResponseTime() des.Time {
	if !j.Done {
		return 0
	}
	return j.FinishedAt - j.Release
}

// Lateness reports finish − deadline (negative when early). Only meaningful
// for completed jobs.
func (j *Job) Lateness() des.Time { return j.FinishedAt - j.Deadline }

// Label renders "τ2#17". It is String without the fmt machinery: schedulers
// stamp every launched kernel with a label, which makes this a hot path.
func (j *Job) Label() string { return string(j.appendLabel(make([]byte, 0, 16))) }

func (j *Job) appendLabel(b []byte) []byte {
	b = append(b, "τ"...)
	b = strconv.AppendInt(b, int64(j.Task.ID), 10)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(j.Index), 10)
	return b
}

// String renders "τ2#17".
func (j *Job) String() string { return j.Label() }

// Label renders "τ2#17.s3" (see Job.Label).
func (s *StageJob) Label() string {
	b := s.Job.appendLabel(make([]byte, 0, 20))
	b = append(b, ".s"...)
	b = strconv.AppendInt(b, int64(s.Index), 10)
	return string(b)
}

// String renders "τ2#17.s3".
func (s *StageJob) String() string { return s.Label() }
