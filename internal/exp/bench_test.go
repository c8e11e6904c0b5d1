package exp

import "testing"

// BenchmarkCompile times compiling the paper's two scenarios over the task
// counts of the host-speed benchmark's paper-grid workload (72 cells): the
// per-cell validation dry run and the job list. Report-only.
func BenchmarkCompile(b *testing.B) {
	var specs []*Spec
	for _, sc := range []int{1, 2} {
		s, err := Scenario(sc, []int{4, 8, 12, 16, 20, 23, 25, 28, 30}, 4, 1)
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			if _, err := s.Compile(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
