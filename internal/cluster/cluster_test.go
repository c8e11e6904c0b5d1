package cluster

import (
	"fmt"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/fault"
	"sgprs/internal/gpu"
	"sgprs/internal/metrics"
	"sgprs/internal/rt"
	"sgprs/internal/sched"
	"sgprs/internal/speedup"
)

// fakeSched is a fleet member's scheduler that records what the dispatcher
// hands it: the releases in arrival order and how often it was evicted.
type fakeSched struct {
	contexts  int
	released  []*rt.Job
	evictions int
}

func (s *fakeSched) Attach(_ *des.Engine, dev *gpu.Device, _ []*rt.Task) error {
	for i := range s.contexts {
		if _, err := dev.CreateContext(fmt.Sprintf("ctx%d", i), 10); err != nil {
			return err
		}
	}
	return nil
}

func (s *fakeSched) OnRelease(j *rt.Job, _ des.Time) { s.released = append(s.released, j) }

func (s *fakeSched) EvictAll(des.Time) { s.evictions++ }

func (s *fakeSched) RecoverKernel(*gpu.Kernel, *gpu.Stream, sched.RecoveryAction, des.Time, des.Time) {
}

// stats reports the dispatcher's accounting so far.
func stats(f *Fleet) metrics.FleetStats {
	var s metrics.FleetStats
	f.AddStats(&s)
	return s
}

// newMembers builds one default device per entry of contexts, each with an
// attached fakeSched owning that many contexts.
func newMembers(t testing.TB, eng *des.Engine, tasks []*rt.Task, contexts ...int) ([]Member, []*fakeSched) {
	t.Helper()
	var members []Member
	var scheds []*fakeSched
	for _, n := range contexts {
		dev, err := gpu.NewDevice(eng, speedup.DefaultModel(), gpu.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s := &fakeSched{contexts: n}
		if err := s.Attach(eng, dev, tasks); err != nil {
			t.Fatal(err)
		}
		members = append(members, Member{Dev: dev, Sch: s})
		scheds = append(scheds, s)
	}
	return members, scheds
}

// newTasks builds profiled one-stage tasks with a 10 ms period; task i does
// workMS[i] of work per period, so its offline load is workMS[i]/10.
func newTasks(t testing.TB, workMS ...float64) []*rt.Task {
	t.Helper()
	period := des.FromMillis(10)
	var tasks []*rt.Task
	for i, w := range workMS {
		g := &dnn.Graph{Name: fmt.Sprintf("g%d", i), Ops: []*dnn.Op{{ID: 0, Name: "op", WorkMS: w}}}
		stages, err := dnn.Partition(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		task, err := rt.NewTask(i, g.Name, g, stages, period, period, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := task.SetWCETs([]des.Time{des.FromMillis(w)}); err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	return tasks
}

func homes(f *Fleet) []int {
	var out []int
	for _, c := range f.chains {
		out = append(out, c.home)
	}
	return out
}

// New builds the dispatcher over the given members and homes every chain:
// Reset on a zero Fleet.
func New(eng *des.Engine, cfg Config, members []Member, tasks []*rt.Task, horizon des.Time) (*Fleet, error) {
	f := &Fleet{}
	if err := f.Reset(eng, cfg, members, tasks, horizon); err != nil {
		return nil, err
	}
	return f, nil
}

func TestNewRejects(t *testing.T) {
	eng := des.NewEngine()
	tasks := newTasks(t, 1, 1)
	members, _ := newMembers(t, eng, tasks, 1, 1)
	cases := map[string]struct {
		cfg     Config
		members []Member
	}{
		"no members":       {Config{}, nil},
		"negative ceiling": {Config{AdmitCeiling: -0.1}, members},
		"ceiling above 1":  {Config{AdmitCeiling: 1.5}, members},
		"fault past fleet": {Config{DeviceFaults: []fault.DeviceFault{{Device: 2, StartSec: 1}}}, members},
	}
	for name, c := range cases {
		if _, err := New(eng, c.cfg, c.members, tasks, des.FromSeconds(1)); err == nil {
			t.Errorf("%s: New accepted it", name)
		}
	}
	if _, err := New(eng, Config{AdmitCeiling: 1}, members, tasks, des.FromSeconds(1)); err != nil {
		t.Errorf("ceiling 1 rejected: %v", err)
	}
}

// TestFleetOfOnePassesReleasesThrough pins what makes a single GPU a fleet of
// one: every release reaches the sole member as is, at once, with nothing
// shed and no event of the dispatcher's own.
func TestFleetOfOnePassesReleasesThrough(t *testing.T) {
	eng := des.NewEngine()
	tasks := newTasks(t, 3, 2, 1)
	members, scheds := newMembers(t, eng, tasks, 2)
	horizon := des.FromSeconds(1)
	f, err := New(eng, Config{}, members, tasks, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if f.Sole() != members[0].Sch {
		t.Fatal("Sole is not the only member's scheduler")
	}
	f.Install(nil)
	var jobs []*rt.Job
	for i := range 4 {
		for _, task := range tasks {
			now := des.FromMillis(float64(10 * i))
			j := task.NewJob(i, now)
			jobs = append(jobs, j)
			f.OnRelease(j, now)
		}
	}
	got := scheds[0].released
	if len(got) != len(jobs) {
		t.Fatalf("member got %d releases, want %d", len(got), len(jobs))
	}
	for i, j := range jobs {
		if got[i] != j || j.Discarded {
			t.Fatalf("release %d: got %v (discarded %v), want %v", i, got[i], j.Discarded, j)
		}
	}
	if n := eng.Pending(); n != 0 {
		t.Errorf("dispatcher scheduled %d events", n)
	}
	if st := stats(f); st.ShedReleases != 0 || st.Migrations != 0 {
		t.Errorf("stats %+v, want no shed release and no migration", st)
	}

	two, _ := newMembers(t, eng, tasks, 1, 1)
	f2, err := New(eng, Config{}, two, tasks, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Sole() != nil {
		t.Error("a fleet of two has a sole scheduler")
	}
}

func TestPlacementHomes(t *testing.T) {
	eng := des.NewEngine()
	horizon := des.FromSeconds(1)

	// Bin-pack by offline load (work/period): 0.6, 0.5, 0.4 fill the three
	// empty devices; 0.3 joins the lightest (0.4), then 0.2 the lightest
	// left (0.5).
	tasks := newTasks(t, 6, 5, 4, 3, 2)
	members, _ := newMembers(t, eng, tasks, 1, 1, 1)
	f, err := New(eng, Config{Placement: PlaceBinPack}, members, tasks, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := homes(f), []int{0, 1, 2, 2, 1}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("bin-pack homes %v, want %v", got, want)
	}

	// Context-fit by chains per context over devices with 1, 2 and 4
	// contexts; fill ties go to the lowest index.
	tasks = newTasks(t, 1, 1, 1, 1, 1, 1)
	members, _ = newMembers(t, eng, tasks, 1, 2, 4)
	f, err = New(eng, Config{Placement: PlaceContextFit}, members, tasks, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := homes(f), []int{0, 1, 2, 2, 1, 2}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("context-fit homes %v, want %v", got, want)
	}
}

// TestAdmissionCutFloors pins the admission cut as ⌊upFrac·N⌋: with one of
// three equal devices down, 2/3 of the capacity survives, under the 0.7
// ceiling, and 10 chains leave 6 admitted, not ⌈6.67⌉ = 7.
func TestAdmissionCutFloors(t *testing.T) {
	eng := des.NewEngine()
	tasks := newTasks(t, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	members, scheds := newMembers(t, eng, tasks, 1, 1, 1)
	cfg := Config{AdmitCeiling: 0.7, DeviceFaults: []fault.DeviceFault{{Device: 2, StartSec: 0.001}}}
	f, err := New(eng, cfg, members, tasks, des.FromSeconds(1))
	if err != nil {
		t.Fatal(err)
	}
	f.Install(nil)
	eng.RunUntil(des.FromMillis(2))
	if scheds[2].evictions != 1 {
		t.Fatalf("crashed device evicted %d times, want 1", scheds[2].evictions)
	}
	admitted := 0
	for i, c := range f.chains {
		if c.admitted != (i < 6) {
			t.Errorf("chain %d admitted = %v", i, c.admitted)
		}
		if c.admitted {
			admitted++
		}
	}
	if admitted != 6 {
		t.Errorf("%d chains admitted, want 6", admitted)
	}
	j := tasks[7].NewJob(0, eng.Now())
	f.OnRelease(j, eng.Now())
	if !j.Discarded || stats(f).ShedReleases != 1 {
		t.Errorf("unadmitted release: discarded %v, shed %d", j.Discarded, stats(f).ShedReleases)
	}
}

// occupy starts one long kernel on each of the first n contexts of dev, so
// its demand ratio is n·10/68 SMs (fakeSched contexts hold 10 SMs each),
// and runs eng past the launch overhead.
func occupy(t *testing.T, eng *des.Engine, dev *gpu.Device, n int) {
	t.Helper()
	for _, ctx := range dev.Contexts()[:n] {
		ctx.AddStream("busy", gpu.HighPriority).Submit(&gpu.Kernel{
			Arg:    "busy",
			Shares: []speedup.WorkShare{{Class: speedup.Conv, Work: 1e6}},
		})
	}
	eng.RunUntil(eng.Now().Add(des.Millisecond))
}

// release hands the fleet task's next job at the engine's clock.
func release(f *Fleet, task *rt.Task, idx int, eng *des.Engine) *rt.Job {
	j := task.NewJob(idx, eng.Now())
	f.OnRelease(j, eng.Now())
	return j
}

// TestLoadStealMigrates drives maybeSteal through its three gates: a home
// within the steal margin of the least-loaded survivor keeps its chain; past
// the margin the chain moves there, its release delayed by the migration
// blackout; and a chain that just moved stays put for the cooldown even when
// its new home is overloaded, moving again once the cooldown has passed.
func TestLoadStealMigrates(t *testing.T) {
	eng := des.NewEngine()
	tasks := newTasks(t, 1, 1, 1)
	members, scheds := newMembers(t, eng, tasks, 4, 4, 4)
	f, err := New(eng, Config{Placement: PlaceLoadSteal}, members, tasks, des.FromSeconds(10))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := homes(f), []int{0, 1, 2}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("load-steal homes %v, want round-robin %v", got, want)
	}
	task := tasks[0]

	// Demand 30/68 ≈ 0.44 against idle survivors: within the 0.5 margin.
	occupy(t, eng, members[0].Dev, 3)
	release(f, task, 0, eng)
	if f.chains[0].home != 0 || len(scheds[0].released) != 1 || stats(f).Migrations != 0 {
		t.Fatalf("within the margin: home %d, home got %d releases, %d migrations",
			f.chains[0].home, len(scheds[0].released), stats(f).Migrations)
	}

	// Demand 40/68 ≈ 0.59: the chain moves to the first least-loaded
	// survivor, and its release waits out the 5 + 1 ms blackout.
	occupy(t, eng, members[0].Dev, 4)
	stolen := eng.Now()
	j := release(f, task, 1, eng)
	st := stats(f)
	if f.chains[0].home != 1 || st.Migrations != 1 || st.MigrationCostMS != 6 {
		t.Fatalf("past the margin: home %d, %d migrations costing %v ms; want home 1, 1 costing 6",
			f.chains[0].home, st.Migrations, st.MigrationCostMS)
	}
	eng.RunUntil(stolen.Add(des.FromMillis(6)) - 1)
	if len(scheds[1].released) != 0 {
		t.Fatal("the stolen chain's release arrived inside the blackout")
	}
	eng.RunUntil(stolen.Add(des.FromMillis(6)))
	if got := scheds[1].released; len(got) != 1 || got[0] != j || j.Discarded {
		t.Fatalf("after the blackout the new home got %v (discarded %v)", got, j.Discarded)
	}

	// The new home overloads inside the 100 ms cooldown: no second move
	// until the cooldown has passed, then a move to the idle device 2.
	occupy(t, eng, members[1].Dev, 4)
	release(f, task, 2, eng)
	if f.chains[0].home != 1 || stats(f).Migrations != 1 {
		t.Fatalf("inside the cooldown: home %d after %d migrations", f.chains[0].home, stats(f).Migrations)
	}
	eng.RunUntil(stolen.Add(des.FromMillis(100)))
	release(f, task, 3, eng)
	if f.chains[0].home != 2 || stats(f).Migrations != 2 {
		t.Fatalf("after the cooldown: home %d after %d migrations, want home 2 after 2",
			f.chains[0].home, stats(f).Migrations)
	}
}

// TestFailoverAtCrashEdge crashes device 1 of a two-device fleet at 10 ms
// (restart at 50 ms, or never) and releases both chains right after the
// crash edge, once per failover policy. The chain homed on the survivor is
// never touched; the crashed device's chain is moved behind a migration
// blackout (migrate), held until the restart plus the retry backoff (retry),
// or dropped for good (shed, and retry on a permanent loss).
func TestFailoverAtCrashEdge(t *testing.T) {
	crashAt := des.FromMillis(10)
	cases := []struct {
		name    string
		policy  rt.FailoverPolicy
		restart float64 // seconds; 0 = permanent loss
		// home and deliver are where and when the crashed chain's
		// release arrives; deliver 0 means it is shed.
		home    int
		deliver des.Time
		latency float64 // FailoverLatencyMeanMS
	}{
		{"migrate", rt.FailoverMigrate, 0.05, 0, crashAt.Add(des.FromMillis(6)), 6},
		{"default", rt.FailoverDefault, 0.05, 0, crashAt.Add(des.FromMillis(6)), 6},
		{"retry", rt.FailoverRetry, 0.05, 1, des.FromMillis(60), 50},
		{"retry-permanent", rt.FailoverRetry, 0, 1, 0, 0},
		{"shed", rt.FailoverShed, 0.05, 1, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := des.NewEngine()
			tasks := newTasks(t, 2, 1)
			members, scheds := newMembers(t, eng, tasks, 1, 1)
			cfg := Config{
				Failover:     c.policy,
				DeviceFaults: []fault.DeviceFault{{Device: 1, StartSec: crashAt.Seconds(), RestartSec: c.restart}},
			}
			f, err := New(eng, cfg, members, tasks, des.FromSeconds(1))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := homes(f), []int{0, 1}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("bin-pack homes %v, want %v", got, want)
			}
			f.Install(nil)
			eng.RunUntil(crashAt)
			if scheds[1].evictions != 1 || stats(f).Crashes != 1 {
				t.Fatalf("crash edge: %d evictions, %d crashes", scheds[1].evictions, stats(f).Crashes)
			}
			kept := release(f, tasks[0], 0, eng)
			moved := release(f, tasks[1], 0, eng)
			if got := scheds[0].released; len(got) != 1 || got[0] != kept {
				t.Fatalf("the survivor's own chain was not served at once: %v", got)
			}
			if home := f.chains[1].home; home != c.home {
				t.Errorf("crashed chain homed on %d, want %d", home, c.home)
			}
			st := stats(f)
			if st.FailoverLatencyMeanMS != c.latency {
				t.Errorf("failover latency %v ms, want %v", st.FailoverLatencyMeanMS, c.latency)
			}
			if c.deliver == 0 {
				if !moved.Discarded || !f.chains[1].shed || st.ShedChains != 1 || st.ShedReleases != 1 {
					t.Errorf("shed: discarded %v, chain shed %v, %d chains and %d releases shed",
						moved.Discarded, f.chains[1].shed, st.ShedChains, st.ShedReleases)
				}
				return
			}
			if moved.Discarded || st.ShedChains != 0 {
				t.Fatalf("the crashed chain was shed (%d chains)", st.ShedChains)
			}
			target := scheds[c.home]
			before := len(target.released)
			eng.RunUntil(c.deliver - 1)
			if len(target.released) != before {
				t.Fatal("the crashed chain's release arrived before its blackout lifted")
			}
			eng.RunUntil(c.deliver)
			if got := target.released; len(got) != before+1 || got[before] != moved {
				t.Errorf("at %v device %d got %d releases, want the crashed chain's", c.deliver, c.home, len(got)-before)
			}
		})
	}
}
