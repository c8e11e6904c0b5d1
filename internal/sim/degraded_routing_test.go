package sim

import (
	"slices"
	"testing"

	"sgprs/internal/cluster"
	"sgprs/internal/des"
	"sgprs/internal/fault"
	"sgprs/internal/gpu"
	"sgprs/internal/metrics"
	"sgprs/internal/profile"
	"sgprs/internal/rt"
	"sgprs/internal/workload"
)

// teeLog retains every released job like jobLog and forwards each
// lifecycle event to the collector.
type teeLog struct {
	jobLog
	col *metrics.Collector
}

func (l *teeLog) JobReleased(j *rt.Job, now des.Time) {
	l.jobLog.JobReleased(j, now)
	l.col.JobReleased(j, now)
}
func (l *teeLog) JobDone(j *rt.Job, now des.Time)      { l.col.JobDone(j, now) }
func (l *teeLog) JobDiscarded(j *rt.Job, now des.Time) { l.col.JobDiscarded(j, now) }

// runRetained runs a faulted cfg wired as runFleet wires it — cfg.Devices
// devices, one fault injector each (device 0's flipping the collector's
// degraded mark), the cluster dispatcher and the collector — but with a
// generator that recycles no job and also logs every release, so the jobs'
// final states can be scanned after the run. It returns the collector's
// summary and the released jobs in release order.
func runRetained(t *testing.T, cfg RunConfig) (metrics.Summary, []*rt.Job) {
	t.Helper()
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	eng := des.NewEngine()
	model := defaultModel()
	tasks, err := workload.Build(workload.Replicate(workload.Options{
		Count: cfg.NumTasks,
		Spec:  workload.TaskSpec{Name: "resnet18", Graph: ReferenceGraph(model), Stages: cfg.Stages, FPS: cfg.FPS},
	}))
	if err != nil {
		t.Fatal(err)
	}
	prof := profile.New(model, cfg.GPU)
	for _, task := range tasks {
		if err := prof.ProfileTask(task, slices.Min(cfg.ContextSMs)); err != nil {
			t.Fatal(err)
		}
	}
	horizon := des.FromSeconds(cfg.HorizonSec)
	col := metrics.NewCollector(des.FromSeconds(cfg.WarmUpSec), horizon)
	var s Session
	var members []cluster.Member
	for i := range max(cfg.Devices, 1) {
		gi := cfg.GPU
		gi.Seed += uint64(i)
		dev, err := gpu.NewDevice(eng, model, gi)
		if err != nil {
			t.Fatal(err)
		}
		sch, err := s.scheduler(i, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sch.Attach(eng, dev, tasks); err != nil {
			t.Fatal(err)
		}
		members = append(members, cluster.Member{Dev: dev, Sch: sch})
		inj := &fault.Injector{}
		if err := inj.Reset(cfg.Faults, eng, dev, sch, cfg.Seed+3+uint64(i)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			inj.Install(col)
		} else {
			inj.Install(nil)
		}
	}
	fleet := &cluster.Fleet{}
	if err := fleet.Reset(eng, cluster.Config{
		Placement: cfg.Placement, Failover: cfg.Failover, DeviceFaults: cfg.Faults.DeviceFaults,
	}, members, tasks, horizon); err != nil {
		t.Fatal(err)
	}
	fleet.Install(col)
	log := &teeLog{col: col}
	var gen workload.Generator
	gen.Reset(eng, fleet, cfg.Seed+2)
	gen.SetSink(log)
	gen.Start(tasks, horizon)
	eng.RunUntil(horizon)
	return col.Summary(), log.jobs
}

// subsetScan is the per-job reference for one degraded subset: the
// in-window released jobs whose release fell in [from, to), those of them
// missed, and those that completed after their deadline.
type subsetScan struct{ released, missed, late int }

func scanSubset(jobs []*rt.Job, warmUp, horizon, from, to des.Time) subsetScan {
	var s subsetScan
	for _, j := range jobs {
		if j.Release < warmUp || j.Deadline >= horizon || j.Release < from || j.Release >= to {
			continue
		}
		s.released++
		if j.Missed(horizon) {
			s.missed++
		}
		if j.Done && j.FinishedAt > j.Deadline {
			s.late++
		}
	}
	return s
}

func (s subsetScan) dmr() float64 {
	if s.released == 0 {
		return 0
	}
	return float64(s.missed) / float64(s.released)
}

// TestDegradedSubsetRouting pins the collector's degraded deadline
// accounting against a scan of the retained jobs: a job released inside an
// SM-degradation window counts toward Summary.Faults.Degraded*, one
// released while a fleet device is down toward Summary.Fleet.FleetDegraded*,
// and a job released inside both toward both. Each case has jobs completing
// late inside its subsets, so a completion that skips its late count or
// lands in the wrong subset changes a figure. Session.Run must report the
// same subsets as the retained run.
func TestDegradedSubsetRouting(t *testing.T) {
	sec := des.FromSeconds
	cases := []struct {
		name      string
		cfg       RunConfig
		sm, fleet [2]float64 // release windows of the two subsets, seconds
		wantFleet bool
	}{
		{
			name: "sgprs-sm-window",
			cfg: RunConfig{
				Kind: KindSGPRS, Name: "sgprs", ContextSMs: []int{34, 34}, NumTasks: 22,
				HorizonSec: 2, Seed: 5, DisableLateDrop: true,
				Faults: &fault.Config{Degradation: []fault.Window{{StartSec: 1.11, EndSec: 1.57, SMs: 20}}},
			},
			sm: [2]float64{1.11, 1.57},
		},
		{
			name: "naive-fleet-crash",
			cfg: RunConfig{
				Kind: KindNaive, Name: "naive", ContextSMs: []int{23, 23, 23}, NumTasks: 40,
				HorizonSec: 2, Seed: 9, Devices: 2,
				Faults: &fault.Config{
					Degradation:  []fault.Window{{StartSec: 1.11, EndSec: 1.43, SMs: 30}},
					DeviceFaults: []fault.DeviceFault{{Device: 1, StartSec: 1.27, RestartSec: 1.71}},
				},
			},
			sm: [2]float64{1.11, 1.43}, fleet: [2]float64{1.27, 1.71}, wantFleet: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sum, jobs := runRetained(t, tc.cfg)
			warmUp, horizon := sum.WarmUp, sum.Horizon
			sm := scanSubset(jobs, warmUp, horizon, sec(tc.sm[0]), sec(tc.sm[1]))
			fl := scanSubset(jobs, warmUp, horizon, sec(tc.fleet[0]), sec(tc.fleet[1]))
			if sm.released == 0 || sm.late == 0 {
				t.Fatalf("SM-degraded subset too weak to judge: %+v", sm)
			}
			if tc.wantFleet && (fl.released == 0 || fl.late == 0) {
				t.Fatalf("fleet-degraded subset too weak to judge: %+v", fl)
			}
			res, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []metrics.Summary{sum, res.Summary} {
				f, g := got.Faults, got.Fleet
				if f.DegradedReleased != sm.released || f.DegradedMissed != sm.missed || f.DegradedDMR != sm.dmr() {
					t.Errorf("SM-degraded: got %d released, %d missed, DMR %v; scan %+v (DMR %v)",
						f.DegradedReleased, f.DegradedMissed, f.DegradedDMR, sm, sm.dmr())
				}
				if g.FleetDegradedReleased != fl.released || g.FleetDegradedMissed != fl.missed || g.FleetDegradedDMR != fl.dmr() {
					t.Errorf("fleet-degraded: got %d released, %d missed, DMR %v; scan %+v (DMR %v)",
						g.FleetDegradedReleased, g.FleetDegradedMissed, g.FleetDegradedDMR, fl, fl.dmr())
				}
			}
			t.Logf("SM-degraded %+v, fleet-degraded %+v", sm, fl)
		})
	}
}
