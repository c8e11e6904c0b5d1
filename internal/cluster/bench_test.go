package cluster

import (
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/rt"
)

// recycleSched is a fleet member's scheduler that hands every release
// straight back to the job pool, so a benchmark times the dispatcher alone.
type recycleSched struct {
	fakeSched
	pool *rt.JobPool
}

func (s *recycleSched) OnRelease(j *rt.Job, _ des.Time) { s.pool.Put(j) }

// BenchmarkFleetDispatch times Fleet.OnRelease, one release per op, on a
// healthy 3-device fleet of 8 chains under each placement policy: the chain
// lookup, the admission and blackout checks and, under load-steal, the
// demand-ratio scan of every survivor. Report-only; a release allocates
// nothing.
func BenchmarkFleetDispatch(b *testing.B) {
	for _, p := range []Placement{PlaceBinPack, PlaceContextFit, PlaceLoadSteal} {
		b.Run(p.String(), func(b *testing.B) {
			eng := des.NewEngine()
			tasks := newTasks(b, 1, 2, 3, 4, 1, 2, 3, 4)
			var pool rt.JobPool
			members, _ := newMembers(b, eng, tasks, 2, 2, 2)
			for i := range members {
				members[i].Sch = &recycleSched{fakeSched: fakeSched{contexts: 2}, pool: &pool}
			}
			f, err := New(eng, Config{Placement: p}, members, tasks, des.FromSeconds(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				t := tasks[i%len(tasks)]
				f.OnRelease(pool.Get(t, i, 0), 0)
			}
		})
	}
}
