package sched

import (
	"fmt"
	"testing"

	"sgprs/internal/des"
	"sgprs/internal/rt"
)

// BenchmarkEDFQueue times one stage dispatch on an EDF queue holding 8 or
// 64 stages: pop the earliest deadline, then push that stage back with a
// later one, as a scheduler re-queues the next job's stage. It reports its
// allocations (0 allocs/op once the heap has its capacity); ns/op is
// report-only.
func BenchmarkEDFQueue(b *testing.B) {
	for _, n := range []int{8, 64} {
		b.Run(fmt.Sprintf("push-pop-%d", n), func(b *testing.B) {
			var q EDFQueue
			for i := range n {
				q.Push(mkStage(b, i, 0, 0, des.Time(i), rt.LevelHigh))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := q.Pop()
				s.Deadline += des.Time(1 + (i*37)%(2*n))
				q.Push(s)
			}
		})
	}
}
