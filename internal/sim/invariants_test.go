package sim

import (
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/gpu"
)

// invariantChecker is a gpu.Hook that asserts execution invariants
// online: stream exclusivity (one kernel per stream at a time), causality
// (finish after start), and bounded per-context concurrency.
type invariantChecker struct {
	t           *testing.T
	running     map[*gpu.Stream]*gpu.Kernel
	perContext  map[*gpu.Context]int
	maxPerCtx   int
	started     int
	finished    int
	maxObserved int
}

func newInvariantChecker(t *testing.T, maxPerCtx int) *invariantChecker {
	return &invariantChecker{
		t:          t,
		running:    map[*gpu.Stream]*gpu.Kernel{},
		perContext: map[*gpu.Context]int{},
		maxPerCtx:  maxPerCtx,
	}
}

func (c *invariantChecker) KernelLaunched(k *gpu.Kernel, now des.Time) {
	st := k.Stream()
	if prev := c.running[st]; prev != nil {
		c.t.Errorf("stream %v started %v while %v still running", st, k.Arg, prev.Arg)
	}
	c.running[st] = k
	ctx := st.Context()
	c.perContext[ctx]++
	if c.perContext[ctx] > c.maxPerCtx {
		c.t.Errorf("context %v exceeded %d concurrent kernels", ctx, c.maxPerCtx)
	}
	if c.perContext[ctx] > c.maxObserved {
		c.maxObserved = c.perContext[ctx]
	}
	c.started++
}

func (c *invariantChecker) KernelRetired(k *gpu.Kernel, now des.Time) {
	st := k.Stream()
	if c.running[st] != k {
		c.t.Errorf("stream %v finished %v it was not running", st, k.Arg)
	}
	delete(c.running, st)
	c.perContext[st.Context()]--
	c.finished++
}

// TestExecutionInvariantsUnderOverload drives SGPRS well past saturation and
// checks the execution-level invariants the paper's design promises: at most
// four stages in parallel per context, streams strictly serialised, and
// every started kernel finished by drain time.
func TestExecutionInvariantsUnderOverload(t *testing.T) {
	chk := newInvariantChecker(t, 4) // 2 high + 2 low streams per context
	res, err := Run(RunConfig{
		Kind:       KindSGPRS,
		ContextSMs: []int{51, 51},
		NumTasks:   28,
		HorizonSec: 3,
		Observer:   chk,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Kernels still executing when the horizon cuts the run off are
	// legitimate: allow one per stream (2 contexts x 4 streams).
	if chk.started == 0 || chk.started-chk.finished > 8 {
		t.Errorf("started %d, finished %d", chk.started, chk.finished)
	}
	// The pool must actually be exercised in parallel under overload.
	if chk.maxObserved < 3 {
		t.Errorf("max concurrent kernels per context = %d, expected the streams to fill", chk.maxObserved)
	}
	if res.Summary.Completed == 0 {
		t.Error("no completions under overload")
	}
}

// TestExecutionInvariantsNaive does the same for the baseline: a single
// stream per partition means strictly one kernel at a time per context.
func TestExecutionInvariantsNaive(t *testing.T) {
	chk := newInvariantChecker(t, 1)
	_, err := Run(RunConfig{
		Kind:       KindNaive,
		ContextSMs: []int{34, 34},
		NumTasks:   20,
		HorizonSec: 3,
		Observer:   chk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if chk.started == 0 || chk.started-chk.finished > 2 {
		t.Errorf("started %d, finished %d", chk.started, chk.finished)
	}
	if chk.maxObserved != 1 {
		t.Errorf("naive max concurrency per context = %d, want 1", chk.maxObserved)
	}
}
