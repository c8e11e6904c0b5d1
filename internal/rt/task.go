// Package rt implements the paper's real-time task model (Section II): a
// task set S = {τ₁ … τ|S|} of periodic DNN inference tasks, each a chain of
// stages (sub-tasks τᵢʲ) with measured WCETs, a relative deadline Dᵢ fixed by
// the designer, and per-stage virtual deadlines Dᵢʲ derived offline in
// proportion to stage WCET (Section IV-A2).
package rt

import (
	"fmt"
	"slices"

	"sgprs/internal/des"
	"sgprs/internal/dnn"
)

// Level is a logical scheduling priority (Section IV-B3). The paper uses two
// offline levels — the last stage of every task is high, the rest low — plus
// an online medium level for stages whose predecessor missed its deadline.
type Level int

// Priority levels, ordered so that a larger value means more urgent.
const (
	LevelLow Level = iota
	LevelMedium
	LevelHigh
)

// String names the level for traces and reports.
func (l Level) String() string {
	switch l {
	case LevelLow:
		return "low"
	case LevelMedium:
		return "medium"
	case LevelHigh:
		return "high"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Task is a periodic DNN inference task τᵢ.
type Task struct {
	ID       int
	Name     string
	Graph    *dnn.Graph
	Stages   []*dnn.Stage
	Period   des.Time
	Deadline des.Time // relative deadline Dᵢ
	Offset   des.Time // first release instant

	// ReleaseJitter bounds the uniform arrival jitter the release
	// generator applies (0 = strictly periodic); WorkVariation is the
	// relative spread of per-job execution demand (0 = deterministic).
	// Both describe workload behaviour, not scheduler policy; the
	// workload generator fills them from its TaskSpec.
	ReleaseJitter des.Time
	WorkVariation float64

	// Recovery selects how a scheduler reacts when one of this task's
	// kernels suffers an injected transient fault; RecoverDefault defers
	// to the run-level fault configuration. MaxRetries bounds
	// RecoverRetry's re-executions per job (0 = use the run-level
	// default). Like the fields above these are filled from the workload
	// TaskSpec and are inert unless the run injects faults.
	Recovery   RecoveryPolicy
	MaxRetries int

	// Offline-measured timing (filled by the profiler).
	wcet       []des.Time // per-stage WCET Cᵢʲ
	totalWCET  des.Time   // task WCET Cᵢ
	virtualDls []des.Time // per-stage relative virtual deadline Dᵢʲ
}

// NewTask builds a task over pre-partitioned stages. WCETs and virtual
// deadlines are unset until SetWCETs is called (the offline phase).
func NewTask(id int, name string, g *dnn.Graph, stages []*dnn.Stage, period, deadline, offset des.Time) (*Task, error) {
	t := &Task{}
	if err := t.Init(id, name, g, stages, period, deadline, offset, nil); err != nil {
		return nil, err
	}
	return t, nil
}

// Init sets t up in place as NewTask builds a task, so a caller can lay a
// whole task set out in one slice. timing, when it holds 2·len(stages)
// values, becomes the storage of the WCET and virtual-deadline tables
// SetWCETs fills, so a task set can share one allocation for them too; nil
// leaves SetWCETs to allocate.
func (t *Task) Init(id int, name string, g *dnn.Graph, stages []*dnn.Stage, period, deadline, offset des.Time, timing []des.Time) error {
	if len(stages) == 0 {
		return fmt.Errorf("rt: task %q has no stages", name)
	}
	if period <= 0 {
		return fmt.Errorf("rt: task %q period %v must be positive", name, period)
	}
	if deadline <= 0 || deadline > period {
		return fmt.Errorf("rt: task %q deadline %v must be in (0, period %v] (constrained-deadline model)", name, deadline, period)
	}
	if offset < 0 {
		return fmt.Errorf("rt: task %q offset %v must be non-negative", name, offset)
	}
	*t = Task{
		ID:       id,
		Name:     name,
		Graph:    g,
		Stages:   stages,
		Period:   period,
		Deadline: deadline,
		Offset:   offset,
	}
	if n := len(stages); len(timing) >= 2*n {
		t.wcet, t.virtualDls = timing[:0:n], timing[n:2*n:2*n]
	}
	return nil
}

// SetWCETs installs offline-measured per-stage WCETs and derives the virtual
// deadlines: Dᵢʲ = Dᵢ · Cᵢʲ / Cᵢ (Section IV-A2). The split always sums to
// exactly Dᵢ; the last stage absorbs rounding. The table is copied, so the
// caller may share or reuse it. Re-installing the table already installed
// is free: the deadlines depend only on it and on Dᵢ, which is fixed at
// NewTask.
func (t *Task) SetWCETs(stageWCET []des.Time) error {
	if t.Profiled() && slices.Equal(t.wcet, stageWCET) {
		return nil
	}
	if len(stageWCET) != len(t.Stages) {
		return fmt.Errorf("rt: task %q has %d stages, got %d WCETs", t.Name, len(t.Stages), len(stageWCET))
	}
	var total des.Time
	for j, c := range stageWCET {
		if c <= 0 {
			return fmt.Errorf("rt: task %q stage %d WCET %v must be positive", t.Name, j, c)
		}
		total += c
	}
	n := len(stageWCET)
	if cap(t.wcet) < n {
		// One allocation holds both tables; later installs overwrite it.
		buf := make([]des.Time, 2*n)
		t.wcet, t.virtualDls = buf[:0:n], buf[n:]
	}
	t.wcet = t.wcet[:n]
	copy(t.wcet, stageWCET)
	t.totalWCET = total

	var assigned des.Time
	for j, c := range stageWCET {
		if j == len(stageWCET)-1 {
			t.virtualDls[j] = t.Deadline - assigned
			continue
		}
		d := des.Time(float64(t.Deadline) * float64(c) / float64(total))
		t.virtualDls[j] = d
		assigned += d
	}
	return nil
}

// Profiled reports whether the offline phase has run.
func (t *Task) Profiled() bool { return len(t.wcet) > 0 }

// WCET reports the task's total worst-case execution time Cᵢ.
func (t *Task) WCET() des.Time { return t.totalWCET }

// StageWCET reports stage j's worst-case execution time Cᵢʲ.
func (t *Task) StageWCET(j int) des.Time { return t.wcet[j] }

// VirtualDeadline reports stage j's relative virtual deadline Dᵢʲ.
func (t *Task) VirtualDeadline(j int) des.Time { return t.virtualDls[j] }

// StageLevel reports the offline priority level of stage j: the last stage
// of every task is high priority, all earlier stages low (Section IV-A1).
func (t *Task) StageLevel(j int) Level {
	if j == len(t.Stages)-1 {
		return LevelHigh
	}
	return LevelLow
}

// Utilization reports Cᵢ/Tᵢ. It is zero until the task is profiled.
func (t *Task) Utilization() float64 {
	if t.Period == 0 {
		return 0
	}
	return float64(t.totalWCET) / float64(t.Period)
}

// String renders "τ3(resnet18,T=33.3ms)".
func (t *Task) String() string {
	return fmt.Sprintf("τ%d(%s,T=%v)", t.ID, t.Name, t.Period)
}
