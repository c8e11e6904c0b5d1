package exp

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"sgprs/internal/runner"
)

// faultSmokeSpec shrinks the fault-resilience builtin to a fast grid: the
// same four variants and the fault-rate axis's machinery, but two rates, two task
// counts, and a two-second horizon.
func faultSmokeSpec(t *testing.T) *Spec {
	t.Helper()
	spec, ok := Lookup("fault-resilience")
	if !ok {
		t.Fatal("fault-resilience builtin not registered")
	}
	s := spec.Clone()
	s.Axes = []Axis{FaultRate(0, 0.1), Tasks(4, 8)}
	for i := range s.Variants {
		s.Variants[i].HorizonSec = 2
	}
	return s
}

// TestFaultResilienceDeterministicAcrossWorkers is the acceptance criterion:
// a seeded fault-resilience sweep is bit-identical at 1, 2, and 4 workers.
// Fault injection draws from streams forked per run at expansion-fixed seeds,
// so worker scheduling must never reach the injectors.
func TestFaultResilienceDeterministicAcrossWorkers(t *testing.T) {
	ref, err := Run(context.Background(), faultSmokeSpec(t), runner.Options{Jobs: 1})
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	for _, workers := range []int{2, 4} {
		rs, err := Run(context.Background(), faultSmokeSpec(t), runner.Options{Jobs: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(ref.Results, rs.Results) {
			t.Errorf("workers=%d: fault-resilience results differ from the single-worker run", workers)
		}
	}
	// Anti-vacuity: the nonzero-rate cells must actually inject.
	faults := 0
	for _, r := range ref.Results {
		faults += r.Result.Summary.Faults.TransientFaults
	}
	if faults == 0 {
		t.Error("sweep injected no transient faults; determinism test exercises nothing")
	}
}

// TestFaultAxesValidate pins the fault-rate axis's rejection surface and the
// clone-before-mutate discipline: expanding a fault-rate axis must not write
// through to the variant's shared Config.
func TestFaultAxesValidate(t *testing.T) {
	if err := FaultRate(0, 1.5).validate("t"); err == nil || !strings.Contains(err.Error(), "probability") {
		t.Errorf("FaultRate(1.5) validate = %v", err)
	}
	spec := faultSmokeSpec(t)
	before := spec.Variants[0].Faults.Clone()
	if _, err := spec.Compile(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, spec.Variants[0].Faults) {
		t.Errorf("compiling mutated the variant's fault config: %+v", spec.Variants[0].Faults)
	}
}
