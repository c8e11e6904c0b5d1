package rt

import (
	"fmt"

	"sgprs/internal/des"
)

// JobPool recycles Job and StageJob structs so a long simulation's live heap
// is proportional to the number of in-flight jobs, not to every job ever
// released. It mirrors the des.Engine event free list (see des/pool_test.go
// for the contract both pools share): recycling never clears the job's
// fields — callers deeper in the completion call stack may still read them —
// and the next Get rewrites every field instead, so a reused job can never
// leak state from its previous occupant.
//
// The pool is single-threaded like the engine that drives it. Ownership rule:
// a job may be Put exactly once, after its watcher callbacks fired, and must
// not be touched once a later Get may have reused it (the generator's next
// release event). Putting a job twice panics — that is the use-after-recycle
// bug this type exists to surface.
//
// The pool also owns every job it ever allocated, so jobs still in flight
// when a run ends — never completed, never discarded, never Put — are not
// lost: Reclaim returns all of them to the free list at the start of the
// next run (DESIGN.md §8).
type JobPool struct {
	free []*Job
	all  []*Job
}

// Get returns a job initialised as instance index of the task released at the
// given instant — from the free list when possible, freshly allocated
// otherwise. Recycled jobs reuse their StageJob structs and Stages slice.
func (p *JobPool) Get(t *Task, index int, release des.Time) *Job {
	var j *Job
	if n := len(p.free); n > 0 {
		j = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		j = &Job{}
		p.all = append(p.all, j)
	}
	t.initJob(j, index, release)
	return j
}

// Put hands a finished-and-recorded (or discarded) job back to the pool. The
// job's fields stay readable until the pool reuses it; putting the same job
// twice before that reuse panics.
func (p *JobPool) Put(j *Job) {
	if j == nil {
		return
	}
	if j.pooled {
		panic(fmt.Sprintf("rt: job %s recycled twice", j))
	}
	j.pooled = true
	p.free = append(p.free, j)
}

// Reclaim returns every job the pool ever handed out to the free list, in
// allocation order, whether or not it was Put. It is only safe once nothing
// can reach the jobs any more: the session calls it at the start of a run,
// after des.Engine.Reset dropped every event that still pointed at one and
// before the run's first release. A reclaimed job keeps its Gen, and the
// next Get increments it, so a reference captured before the reclaim stays
// detectably stale; putting such a job again panics as a double recycle.
func (p *JobPool) Reclaim() {
	p.free = p.free[:0]
	for _, j := range p.all {
		j.pooled = true
		p.free = append(p.free, j)
	}
}

// Len reports the free-list size (diagnostics/tests).
func (p *JobPool) Len() int { return len(p.free) }
