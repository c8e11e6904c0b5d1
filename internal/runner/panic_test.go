package runner

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/gpu"
)

// panicObserver blows up on the first kernel launch — a stand-in for any
// buggy user-supplied observer.
type panicObserver struct{}

func (panicObserver) KernelLaunched(k *gpu.Kernel, now des.Time) { panic("observer exploded") }
func (panicObserver) KernelRetired(k *gpu.Kernel, now des.Time)  {}

// TestRunRecoversPanickingJob pins the pool's fault isolation: a job that
// panics mid-simulation is finalized with a JobError carrying the panic and
// its stack, while its siblings — including later jobs drained by the same
// worker — complete normally and bit-identically to a clean sweep.
func TestRunRecoversPanickingJob(t *testing.T) {
	good := testBase("good")
	bad := testBase("bad")
	bad.Observer = panicObserver{}
	jobs := []Job{
		{Variant: "good", Tasks: 2, Config: withTasks(good, 2)},
		{Variant: "bad", Tasks: 2, Config: withTasks(bad, 2)},
		{Variant: "good", Tasks: 4, Config: withTasks(good, 4)},
	}
	// One worker forces the panicking job and a later clean job through the
	// same (rebuilt) session.
	results := Run(context.Background(), jobs, Options{Jobs: 1})
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("clean jobs failed: %v / %v", results[0].Err, results[2].Err)
	}
	err := results[1].Err
	if err == nil {
		t.Fatal("panicking job reported no error")
	}
	if !strings.Contains(err.Error(), "observer exploded") {
		t.Errorf("error does not carry the panic value: %v", err)
	}
	if !strings.Contains(err.Error(), "panic_test.go") {
		t.Errorf("error does not carry the stack: %v", err)
	}

	// The post-panic session rebuild keeps later results bit-identical to a
	// sweep that never panicked.
	clean := Run(context.Background(), []Job{
		{Variant: "good", Tasks: 4, Config: withTasks(good, 4)},
	}, Options{Jobs: 1})
	if clean[0].Err != nil {
		t.Fatalf("reference run failed: %v", clean[0].Err)
	}
	if !reflect.DeepEqual(results[2].Result, clean[0].Result) {
		t.Error("job after a panic differs from a clean run")
	}
}
