package sim

import (
	"reflect"
	"strings"
	"testing"

	"sgprs/internal/fault"
	"sgprs/internal/memo"
	"sgprs/internal/metrics"
	"sgprs/internal/rt"
	"sgprs/internal/speedup"
)

// fleetConfig is a 3-device fleet under pressure: a mid-run crash of device 1
// with a later restart, the kernel-level fault families active on every
// device, and an admission ceiling that bites while the fleet is degraded
// (2/3 surviving capacity < 0.7).
func fleetConfig(name string, failover rt.FailoverPolicy) RunConfig {
	return RunConfig{
		Kind: KindSGPRS, Name: name, ContextSMs: []int{23, 23, 23},
		NumTasks: 18, HorizonSec: 3, Seed: 7,
		Devices: 3, Failover: failover, AdmitCeiling: 0.7,
		Faults: &fault.Config{
			Overrun: &fault.Overrun{Model: fault.OverrunHeavyTail, Factor: 2},
			DeviceFaults: []fault.DeviceFault{
				{Device: 1, StartSec: 1.2, RestartSec: 2.2},
			},
		},
	}
}

// TestFleetDevicesOneBitIdentical pins that Devices=0 and Devices=1 (with
// every fleet knob zero) are the same fleet of one: byte for byte across both
// paper scenario grids, every variant, every task count, Summary.Fleet zero
// in both.
func TestFleetDevicesOneBitIdentical(t *testing.T) {
	counts := []int{4, 12}
	const horizon = 2
	cache := memo.New()
	for _, scenario := range []int{1, 2} {
		np, err := ScenarioContexts(scenario)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range ScenarioVariants() {
			for _, n := range counts {
				cfg := RunConfig{
					Kind:       v.Kind,
					Name:       v.Name,
					ContextSMs: ContextPool(np, v.OS, speedup.DeviceSMs),
					HorizonSec: horizon,
					Seed:       1,
					NumTasks:   n,
				}
				want, err := NewSession(cache).Run(cfg)
				if err != nil {
					t.Fatalf("scenario %d %s n=%d devices=0: %v", scenario, v.Name, n, err)
				}
				cfg.Devices = 1
				got, err := NewSession(cache).Run(cfg)
				if err != nil {
					t.Fatalf("scenario %d %s n=%d devices=1: %v", scenario, v.Name, n, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("scenario %d %s n=%d: Devices=1 differs from Devices=0\nwant %+v\ngot  %+v",
						scenario, v.Name, n, want.Summary, got.Summary)
				}
			}
		}
	}
}

// TestFleetRunsDeterministic pins seeded reproducibility of fleet runs under
// every failover policy: two fresh runs are bit-identical, and a session
// interleaving fleet, faulted single-device, and clean work reproduces the
// fleet result exactly — no dispatcher or extra-device state leaks across
// Session.Run calls.
func TestFleetRunsDeterministic(t *testing.T) {
	for _, fo := range []rt.FailoverPolicy{rt.FailoverMigrate, rt.FailoverRetry, rt.FailoverShed} {
		cfg := fleetConfig("det-"+fo.String(), fo)
		want, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s first run: %v", fo, err)
		}
		again, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s second run: %v", fo, err)
		}
		if !reflect.DeepEqual(want, again) {
			t.Errorf("%s: two fresh fleet runs differ\nwant %+v\ngot  %+v", fo, want.Summary, again.Summary)
		}
	}
	sess := NewSession(memo.New())
	cfg := fleetConfig("det-session", rt.FailoverMigrate)
	want, err := sess.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(faultedConfig("det-single", "retry")); err != nil {
		t.Fatal(err)
	}
	clean := faultedConfig("det-clean", "retry")
	clean.Faults = nil
	if _, err := sess.Run(clean); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("session rerun differs after interleaved single-device runs\nwant %+v\ngot  %+v",
			want.Summary, got.Summary)
	}
}

// TestFleetIneligibleForFastForward pins the eligibility gate: a steady
// configuration that warps on one device must fully simulate on a fleet of
// two, which has no sole scheduler to fingerprint — crash edges and
// placement are event-driven, and a warp would skip releases the dispatcher
// was due to route.
func TestFleetIneligibleForFastForward(t *testing.T) {
	cfg := RunConfig{
		Kind: KindSGPRS, Name: "ff-fleet", ContextSMs: ContextPool(2, 1.5, speedup.DeviceSMs),
		NumTasks: 6, HorizonSec: 8, Seed: 1, GPU: eligibleGPU(1),
	}
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.FastForward.CyclesSkipped == 0 {
		t.Fatal("reference run never fast-forwarded; the test exercises nothing")
	}
	cfg.Devices = 2
	fleet, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.FastForward != (metrics.FFStats{}) {
		t.Errorf("fleet run engaged fast-forward: %+v", fleet.FastForward)
	}
}

// TestFleetFailoverActivity guards the determinism tests against vacuity: the
// pinned device-crash scenario must actually crash, restart, and — per
// policy — migrate or shed, with the admission controller and the
// fleet-degraded attribution leaving fingerprints, all against a clean fleet
// twin that does none of it.
func TestFleetFailoverActivity(t *testing.T) {
	clean := fleetConfig("clean-fleet", rt.FailoverMigrate)
	clean.Faults = nil
	base, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	bf := base.Summary.Fleet
	if bf.Devices != 3 || len(bf.PerDeviceUtilization) != 3 {
		t.Fatalf("clean fleet shape: %+v", bf)
	}
	if bf.Crashes != 0 || bf.Migrations != 0 || bf.ShedChains != 0 || bf.ShedReleases != 0 ||
		bf.FleetDegradedReleased != 0 {
		t.Fatalf("clean fleet shows failure activity: %+v", bf)
	}
	for _, d := range bf.PerDeviceUtilization {
		if d <= 0 || d > 1 {
			t.Errorf("clean per-device utilization %v outside (0, 1]", d)
		}
	}
	for _, fo := range []rt.FailoverPolicy{rt.FailoverMigrate, rt.FailoverRetry, rt.FailoverShed} {
		res, err := Run(fleetConfig("act-"+fo.String(), fo))
		if err != nil {
			t.Fatalf("%s: %v", fo, err)
		}
		f := res.Summary.Fleet
		if f.Crashes != 1 || f.Restarts != 1 {
			t.Errorf("%s: crash/restart = %d/%d, want 1/1", fo, f.Crashes, f.Restarts)
		}
		if f.ShedReleases == 0 {
			t.Errorf("%s: no releases shed while degraded: %+v", fo, f)
		}
		if f.FleetDegradedReleased == 0 {
			t.Errorf("%s: degraded window saw no releases: %+v", fo, f)
		}
		if f.FleetDegradedDMR < 0 || f.FleetDegradedDMR > 1 {
			t.Errorf("%s: fleet-degraded DMR %v outside [0, 1]", fo, f.FleetDegradedDMR)
		}
		if f.FailoverLatencyMeanMS < 0 {
			t.Errorf("%s: negative failover latency %v", fo, f.FailoverLatencyMeanMS)
		}
		switch fo {
		case rt.FailoverMigrate:
			if f.Migrations == 0 || f.MigrationCostMS <= 0 {
				t.Errorf("migrate: no migrations: %+v", f)
			}
			if f.FailoverLatencyMeanMS == 0 {
				t.Errorf("migrate: zero failover latency: %+v", f)
			}
		case rt.FailoverRetry:
			if f.Migrations != 0 {
				t.Errorf("retry: unexpected migrations: %+v", f)
			}
			if f.FailoverLatencyMeanMS == 0 {
				t.Errorf("retry: zero failover latency: %+v", f)
			}
		case rt.FailoverShed:
			if f.ShedChains == 0 {
				t.Errorf("shed: no chains shed: %+v", f)
			}
		}
		// The crash must hurt relative to the clean twin, through the fleet
		// accounting alone.
		if res.Summary.Missed+res.Summary.Dropped <= base.Summary.Missed+base.Summary.Dropped {
			t.Errorf("%s: device loss cost nothing (missed+dropped %d vs clean %d)",
				fo, res.Summary.Missed+res.Summary.Dropped, base.Summary.Missed+base.Summary.Dropped)
		}
	}
}

// TestFleetConfigValidation pins the fail-fast config errors: impossible
// degradation windows name their index against the actual device, device
// faults require a fleet and an in-range target, and fleet knobs on a single
// device are rejected rather than ignored.
func TestFleetConfigValidation(t *testing.T) {
	base := func() RunConfig {
		return RunConfig{Kind: KindSGPRS, ContextSMs: []int{34, 34}, NumTasks: 4}
	}
	cases := []struct {
		name string
		mut  func(*RunConfig)
		want string
	}{
		{
			"degradation window exceeds device",
			func(c *RunConfig) {
				c.Faults = &fault.Config{Degradation: []fault.Window{
					{StartSec: 0.1, EndSec: 0.2, SMs: 10},
					{StartSec: 0.5, EndSec: 0.9, SMs: 1000},
				}}
			},
			"degradation window 1",
		},
		{
			"device faults on single device",
			func(c *RunConfig) {
				c.Faults = &fault.Config{DeviceFaults: []fault.DeviceFault{{Device: 0, StartSec: 1}}}
			},
			"single device",
		},
		{
			"device fault target out of range",
			func(c *RunConfig) {
				c.Devices = 2
				c.Faults = &fault.Config{DeviceFaults: []fault.DeviceFault{{Device: 2, StartSec: 1}}}
			},
			"device fault 0",
		},
		{
			"placement on single device",
			func(c *RunConfig) { c.Placement = 1 },
			"single device",
		},
		{
			"failover on single device",
			func(c *RunConfig) { c.Failover = rt.FailoverShed },
			"single device",
		},
		{
			"admission ceiling out of range",
			func(c *RunConfig) { c.Devices = 2; c.AdmitCeiling = 1.5 },
			"admission ceiling",
		},
		{
			"negative device count",
			func(c *RunConfig) { c.Devices = -1 },
			"device count",
		},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		err := cfg.Normalize()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
