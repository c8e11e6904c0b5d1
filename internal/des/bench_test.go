package des

import (
	"fmt"
	"testing"
)

// BenchmarkEngine times the engine's three queues one operation at a time:
// a schedule plus a pop on the heap holding 8 or 64 pending events, a keyed
// re-arm plus a fire with 1, 3 or 16 keyed events in the keyed lane, and a
// schedule plus a pop on the monotone lane holding 8, which never drains.
// Every case reports its allocations (0 allocs/op, 0 B/op: popMono compacts
// the lane, so even the never-draining one reuses its backing array);
// ns/op is report-only.
func BenchmarkEngine(b *testing.B) {
	nop := func(Time, any) {}
	for _, n := range []int{8, 64} {
		b.Run(fmt.Sprintf("heap-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			e := NewEngine()
			for i := 0; i < n; i++ {
				e.AfterArg(Time(1+i), "heap", nop, nil)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.AfterArg(Time(1+(i*37)%n), "heap", nop, nil)
				e.Step()
			}
		})
	}
	for _, k := range []int{1, 3, 16} {
		b.Run(fmt.Sprintf("keyed-%d", k), func(b *testing.B) {
			b.ReportAllocs()
			e := NewEngine()
			timers := make([]Event, k)
			for i := range timers {
				timers[i].InitKeyed("keyed", nop, nil)
				e.RescheduleKeyed(&timers[i], Time(1+i), e.NextSeq())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A queued timer moves, a fired one re-queues.
				e.RescheduleKeyed(&timers[i%k], e.Now()+Time(1+(i*37)%(2*k)), e.NextSeq())
				e.Step()
			}
		})
	}
	b.Run("mono", func(b *testing.B) {
		b.ReportAllocs()
		e := NewEngine()
		for i := 0; i < 8; i++ {
			e.AfterArgMonotone(8, "mono", nop, nil)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.AfterArgMonotone(8, "mono", nop, nil)
			e.Step()
		}
	})
}
