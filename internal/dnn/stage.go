package dnn

import (
	"fmt"
	"slices"

	"sgprs/internal/speedup"
)

// Stage is one pipeline stage (the paper's sub-task τᵢʲ): a contiguous run of
// operations whose only external interface is the final tensor of the
// previous stage. Stages of one network form a chain.
type Stage struct {
	Index  int
	Ops    []*Op
	WorkMS float64             // total single-SM milliseconds
	Shares []speedup.WorkShare // per-class work, for composed speedup
}

// Kernels reports how many kernels (operations) the stage launches.
func (s *Stage) Kernels() int { return len(s.Ops) }

// Gain reports the stage's composed speedup at n effective SMs.
func (s *Stage) Gain(m *speedup.Model, n float64) float64 {
	return m.Aggregate(s.Shares, n)
}

// LatencyMS reports the stage's isolated latency at n effective SMs.
func (s *Stage) LatencyMS(m *speedup.Model, n float64) float64 {
	g := s.Gain(m, n)
	if g <= 0 {
		return 0
	}
	return s.WorkMS / g
}

// Name returns a compact identifier: the names of the first and last ops.
func (s *Stage) Name() string {
	if len(s.Ops) == 0 {
		return fmt.Sprintf("stage%d(empty)", s.Index)
	}
	return fmt.Sprintf("stage%d(%s..%s)", s.Index, s.Ops[0].Name, s.Ops[len(s.Ops)-1].Name)
}

// Partition splits g into exactly k chained stages, cutting only at valid cut
// points (single-tensor interfaces) and balancing single-SM work so the
// largest stage is as small as possible. The paper divides ResNet18 into six
// stages; Partition generalises that to any network and stage count.
//
// It returns an error when k exceeds the number of cuttable segments: the
// caller asked for more pipeline stages than the DAG structure admits.
func Partition(g *Graph, k int) ([]*Stage, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("dnn: stage count %d must be positive", k)
	}
	cuts := g.CutPoints()
	// Atom boundaries: ops (start..cut0], (cut0..cut1], ..., (cutM..end].
	bounds := make([]int, 0, len(cuts)+1)
	bounds = append(bounds, cuts...)
	bounds = append(bounds, len(g.Ops)-1)
	numAtoms := len(bounds)
	if k > numAtoms {
		return nil, fmt.Errorf("dnn: graph %q admits at most %d stages, requested %d", g.Name, numAtoms, k)
	}

	atomWork := make([]float64, numAtoms)
	prev := -1
	for i, b := range bounds {
		for j := prev + 1; j <= b; j++ {
			atomWork[i] += g.Ops[j].WorkMS
		}
		prev = b
	}

	groups := balancedPartition(atomWork, k)

	stages := make([]*Stage, k)
	atom := 0
	opStart := 0
	for si, take := range groups {
		last := bounds[atom+take-1]
		st := &Stage{Index: si, Ops: slices.Clone(g.Ops[opStart : last+1])}
		for _, op := range st.Ops {
			st.WorkMS += op.WorkMS
		}
		st.Shares = workShares(st.Ops)
		stages[si] = st
		atom += take
		opStart = last + 1
	}
	return stages, nil
}

// workShares sums the ops' work per class, in op order, and lists the
// classes with positive work in class order. Ops of a class outside the
// model's range contribute to no share.
func workShares(ops []*Op) []speedup.WorkShare {
	var acc [speedup.NumClasses]float64
	for _, op := range ops {
		if op.Class >= 0 && op.Class < speedup.NumClasses {
			acc[op.Class] += op.WorkMS
		}
	}
	n := 0
	for _, w := range acc {
		if w > 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]speedup.WorkShare, 0, n)
	for cl, w := range acc {
		if w > 0 {
			out = append(out, speedup.WorkShare{Class: speedup.Class(cl), Work: w})
		}
	}
	return out
}

// balancedPartition splits the atom sequence into exactly k contiguous
// non-empty groups minimising the maximum group sum (classic linear
// partition DP), returning the group sizes in order.
func balancedPartition(work []float64, k int) []int {
	n := len(work)
	prefix := make([]float64, n+1)
	for i, w := range work {
		prefix[i+1] = prefix[i] + w
	}
	sum := func(i, j int) float64 { return prefix[j] - prefix[i] } // [i, j)

	const inf = 1e308
	// dp[m*w+i] = minimal max-sum splitting work[:i] into m groups, and
	// cut[m*w+i] the start of that split's last group.
	w := n + 1
	dp := make([]float64, (k+1)*w)
	cut := make([]int, (k+1)*w)
	for i := range dp {
		dp[i] = inf
	}
	dp[0] = 0
	for m := 1; m <= k; m++ {
		prev, row := dp[(m-1)*w:m*w], dp[m*w:(m+1)*w]
		for i := m; i <= n-(k-m); i++ {
			for j := m - 1; j < i; j++ {
				if prev[j] == inf {
					continue
				}
				cand := prev[j]
				if s := sum(j, i); s > cand {
					cand = s
				}
				if cand < row[i] {
					row[i] = cand
					cut[m*w+i] = j
				}
			}
		}
	}
	sizes := make([]int, k)
	i := n
	for m := k; m >= 1; m-- {
		j := cut[m*w+i]
		sizes[m-1] = i - j
		i = j
	}
	return sizes
}
