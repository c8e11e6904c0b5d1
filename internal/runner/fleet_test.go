package runner

import (
	"context"
	"reflect"
	"testing"

	"sgprs/internal/cluster"
	"sgprs/internal/fault"
	"sgprs/internal/rt"
	"sgprs/internal/sim"
)

// fleetBase is a crash-and-failover fleet point: three devices, device 1
// lost mid-measurement, migrate failover with an admission ceiling that
// bites while degraded.
func fleetBase(name string) sim.RunConfig {
	cfg := sim.RunConfig{
		Kind:         sim.KindSGPRS,
		Name:         name,
		ContextSMs:   sim.ContextPool(3, 1.0, 68),
		NumTasks:     1,
		HorizonSec:   testHorizon + 1,
		Seed:         7,
		Devices:      3,
		Placement:    cluster.PlaceBinPack,
		Failover:     rt.FailoverMigrate,
		AdmitCeiling: 0.7,
		Faults: &fault.Config{
			DeviceFaults: []fault.DeviceFault{{Device: 1, StartSec: 1.2, RestartSec: 2.2}},
		},
	}
	return cfg
}

// TestFleetWorkerInvariance extends the worker-equivalence contract to fleet
// runs: the same crash-and-failover job list yields bit-identical full
// results at 1, 2, and 4 workers, and the failover path actually fired (the
// equality is not vacuous).
func TestFleetWorkerInvariance(t *testing.T) {
	jobs := sweepJobs(fleetBase("fleet"), []int{6, 12, 18})
	ref := Run(context.Background(), jobs, Options{Jobs: 1})
	for _, r := range ref {
		if r.Err != nil {
			t.Fatalf("fleet job n=%d: %v", r.Job.Tasks, r.Err)
		}
		fl := r.Result.Summary.Fleet
		if fl.Crashes != 1 || fl.Migrations == 0 {
			t.Fatalf("fleet job n=%d saw no failover activity: %+v", r.Job.Tasks, fl)
		}
	}
	for _, workers := range []int{2, 4} {
		got := Run(context.Background(), jobs, Options{Jobs: workers})
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("fleet results differ between 1 and %d workers", workers)
		}
	}
}

// TestFleetMixedPool: fleet and single-device jobs interleaved through the
// same pool (whose workers reuse one session each) leave each other's
// results untouched — the single-device points still match a pool that never
// saw a fleet job.
func TestFleetMixedPool(t *testing.T) {
	single := sweepJobs(testBase("sgprs"), testCounts)
	ref := Run(context.Background(), single, Options{Jobs: 1})

	mixed := []Job{
		single[0],
		sweepJobs(fleetBase("fleet"), []int{8})[0],
		single[1],
	}
	got := Run(context.Background(), mixed, Options{Jobs: 1})
	for i, want := range []int{0, 2} {
		if got[want].Err != nil {
			t.Fatalf("mixed job %d: %v", want, got[want].Err)
		}
		if !reflect.DeepEqual(ref[i].Result, got[want].Result) {
			t.Errorf("single-device job %d changed after sharing a session with a fleet run", i)
		}
	}
	if got[1].Err != nil {
		t.Fatalf("fleet job in mixed pool: %v", got[1].Err)
	}
}
