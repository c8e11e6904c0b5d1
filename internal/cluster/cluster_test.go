package cluster

import (
	"fmt"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/dnn"
	"sgprs/internal/fault"
	"sgprs/internal/gpu"
	"sgprs/internal/rt"
	"sgprs/internal/speedup"
)

// fakeSched is a fleet member's scheduler that records what the dispatcher
// hands it: the releases in arrival order and how often it was evicted.
type fakeSched struct {
	contexts  int
	released  []*rt.Job
	evictions int
}

func (s *fakeSched) Name() string { return "fake" }

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

// newMembers builds one default device per entry of contexts, each with an
// attached fakeSched owning that many contexts.
func newMembers(t *testing.T, eng *des.Engine, tasks []*rt.Task, contexts ...int) ([]Member, []*fakeSched) {
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
func newTasks(t *testing.T, workMS ...float64) []*rt.Task {
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
	if st := f.Stats(); st.ShedReleases != 0 || st.Migrations != 0 {
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
	if !j.Discarded || f.Stats().ShedReleases != 1 {
		t.Errorf("unadmitted release: discarded %v, shed %d", j.Discarded, f.Stats().ShedReleases)
	}
}
