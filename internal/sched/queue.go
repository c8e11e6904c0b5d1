package sched

import (
	"slices"

	"sgprs/internal/rt"
)

// EDFQueue is a deterministic earliest-deadline-first priority queue of stage
// jobs. Ties on the absolute deadline break by (task ID, job index, stage
// index) so simulations replay identically.
//
// The heap is concrete — no container/heap interface dispatch — mirroring the
// des.Engine event queue: stage push/pop is on the per-dispatch hot path, and
// the ordering key is total (no two distinct stage jobs compare equal), so
// the pop sequence is a pure function of the pushes whatever the heap's
// internal layout.
type EDFQueue struct {
	h []*rt.StageJob
}

func edfBefore(a, b *rt.StageJob) bool {
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	if a.Job.Task.ID != b.Job.Task.ID {
		return a.Job.Task.ID < b.Job.Task.ID
	}
	if a.Job.Index != b.Job.Index {
		return a.Job.Index < b.Job.Index
	}
	return a.Index < b.Index
}

// Len reports the number of queued stages.
func (q *EDFQueue) Len() int { return len(q.h) }

// Push enqueues a stage job.
func (q *EDFQueue) Push(s *rt.StageJob) {
	q.h = append(q.h, s)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !edfBefore(q.h[i], q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// Pop removes and returns the earliest-deadline stage, or nil when empty.
func (q *EDFQueue) Pop() *rt.StageJob {
	n := len(q.h)
	if n == 0 {
		return nil
	}
	s := q.h[0]
	n--
	q.h[0] = q.h[n]
	q.h[n] = nil
	q.h = q.h[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && edfBefore(q.h[right], q.h[left]) {
			least = right
		}
		if !edfBefore(q.h[least], q.h[i]) {
			break
		}
		q.h[i], q.h[least] = q.h[least], q.h[i]
		i = least
	}
	return s
}

// Peek returns the earliest-deadline stage without removing it, or nil.
func (q *EDFQueue) Peek() *rt.StageJob {
	if len(q.h) == 0 {
		return nil
	}
	return q.h[0]
}

// MultiLevelQueue is the paper's three-level stage queue (Section IV-B3):
// high, medium, and low logical priorities, EDF order within each level.
type MultiLevelQueue struct {
	levels [3]EDFQueue
}

// Len reports the total queued stages across levels.
func (m *MultiLevelQueue) Len() int {
	return m.levels[0].Len() + m.levels[1].Len() + m.levels[2].Len()
}

// Reset empties every level, keeping the heap arrays for the next run.
func (m *MultiLevelQueue) Reset() {
	for l := range m.levels {
		clear(m.levels[l].h)
		m.levels[l].h = m.levels[l].h[:0]
	}
}

// Push enqueues the stage at its current level.
func (m *MultiLevelQueue) Push(s *rt.StageJob) { m.levels[s.Level].Push(s) }

// Pop removes the most urgent stage: highest non-empty level, EDF within.
func (m *MultiLevelQueue) Pop() *rt.StageJob {
	for l := rt.LevelHigh; l >= rt.LevelLow; l-- {
		if s := m.levels[l].Pop(); s != nil {
			return s
		}
	}
	return nil
}

// Snapshot appends the queue's stages to dst in pop order (EDF, ties by the
// total key). The heap's internal layout is a function of its push/pop
// history, which never influences pop order — the key is total — so the
// fast-forward fingerprint must not depend on it either: two queues with
// equal contents but different layouts behave identically and must encode
// identically. The queue is unchanged.
func (q *EDFQueue) Snapshot(dst []*rt.StageJob) []*rt.StageJob {
	n := len(dst)
	dst = append(dst, q.h...)
	slices.SortFunc(dst[n:], func(a, b *rt.StageJob) int {
		if edfBefore(a, b) {
			return -1
		}
		return 1
	})
	return dst
}

// Snapshot appends the queue's stages level by level (high to low), each
// level in pop order; see EDFQueue.Snapshot.
func (m *MultiLevelQueue) Snapshot(dst []*rt.StageJob) []*rt.StageJob {
	for l := rt.LevelHigh; l >= rt.LevelLow; l-- {
		dst = m.levels[l].Snapshot(dst)
	}
	return dst
}

// Peek returns the most urgent stage without removing it, or nil.
func (m *MultiLevelQueue) Peek() *rt.StageJob {
	for l := rt.LevelHigh; l >= rt.LevelLow; l-- {
		if s := m.levels[l].Peek(); s != nil {
			return s
		}
	}
	return nil
}
