package dnn

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"sgprs/internal/speedup"
)

// The reference implementations below are the partitioner's earlier forms —
// the quadratic cut-point scan, the map-based class sums and the 2-D DP
// tables — kept here to pin the production forms to them bit for bit.

func refCutPoints(g *Graph) []int {
	n := len(g.Ops)
	maxReach := make([]int, n)
	for i := range maxReach {
		maxReach[i] = i
	}
	for _, op := range g.Ops {
		for _, in := range op.Inputs {
			if op.ID > maxReach[in] {
				maxReach[in] = op.ID
			}
		}
	}
	var cuts []int
	for i := 0; i < n-1; i++ {
		ok := true
		for j := 0; j < i; j++ {
			if maxReach[j] > i {
				ok = false
				break
			}
		}
		if ok {
			cuts = append(cuts, i)
		}
	}
	return cuts
}

func refWorkShares(ops []*Op) []speedup.WorkShare {
	acc := make(map[speedup.Class]float64)
	for _, op := range ops {
		acc[op.Class] += op.WorkMS
	}
	var out []speedup.WorkShare
	for _, cl := range speedup.Classes() {
		if w := acc[cl]; w > 0 {
			out = append(out, speedup.WorkShare{Class: cl, Work: w})
		}
	}
	return out
}

func refBalancedPartition(work []float64, k int) []int {
	n := len(work)
	prefix := make([]float64, n+1)
	for i, w := range work {
		prefix[i+1] = prefix[i] + w
	}
	sum := func(i, j int) float64 { return prefix[j] - prefix[i] }
	const inf = 1e308
	dp := make([][]float64, k+1)
	cut := make([][]int, k+1)
	for m := range dp {
		dp[m] = make([]float64, n+1)
		cut[m] = make([]int, n+1)
		for i := range dp[m] {
			dp[m][i] = inf
		}
	}
	dp[0][0] = 0
	for m := 1; m <= k; m++ {
		for i := m; i <= n-(k-m); i++ {
			for j := m - 1; j < i; j++ {
				if dp[m-1][j] == inf {
					continue
				}
				cand := dp[m-1][j]
				if s := sum(j, i); s > cand {
					cand = s
				}
				if cand < dp[m][i] {
					dp[m][i] = cand
					cut[m][i] = j
				}
			}
		}
	}
	sizes := make([]int, k)
	i := n
	for m := k; m >= 1; m-- {
		j := cut[m][i]
		sizes[m-1] = i - j
		i = j
	}
	return sizes
}

// refPartition is Partition built from the reference parts.
func refPartition(g *Graph, k int) []*Stage {
	cuts := refCutPoints(g)
	bounds := append(slices.Clone(cuts), len(g.Ops)-1)
	atomWork := make([]float64, len(bounds))
	prev := -1
	for i, b := range bounds {
		for j := prev + 1; j <= b; j++ {
			atomWork[i] += g.Ops[j].WorkMS
		}
		prev = b
	}
	var stages []*Stage
	atom, opStart := 0, 0
	for si, take := range refBalancedPartition(atomWork, k) {
		last := bounds[atom+take-1]
		st := &Stage{Index: si}
		for j := opStart; j <= last; j++ {
			st.Ops = append(st.Ops, g.Ops[j])
			st.WorkMS += g.Ops[j].WorkMS
		}
		st.Shares = refWorkShares(st.Ops)
		stages = append(stages, st)
		atom += take
		opStart = last + 1
	}
	return stages
}

// sameShares compares share vectors class by class and work by float bits.
func sameShares(a, b []speedup.WorkShare) bool {
	return slices.EqualFunc(a, b, func(x, y speedup.WorkShare) bool {
		return x.Class == y.Class && math.Float64bits(x.Work) == math.Float64bits(y.Work)
	})
}

// TestPartitionMatchesReference: for every model at every valid stage count,
// Partition returns the reference's stages — the same ops, and the same
// float bits of every stage's work and of every class share.
func TestPartitionMatchesReference(t *testing.T) {
	cm := DefaultCostModel()
	for _, g := range []*Graph{ResNet18(cm), VGG11(cm), TinyCNN(cm), MLP(cm, 784, 256, 10)} {
		cuts := g.CutPoints()
		if want := refCutPoints(g); !slices.Equal(cuts, want) {
			t.Fatalf("%s: CutPoints %v, reference %v", g.Name, cuts, want)
		}
		if !sameShares(g.WorkByClass(), refWorkShares(g.Ops)) {
			t.Fatalf("%s: WorkByClass differs from the reference", g.Name)
		}
		for k := 1; k <= len(cuts)+1; k++ {
			got, err := Partition(g, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", g.Name, k, err)
			}
			want := refPartition(g, k)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: %d stages, reference %d", g.Name, k, len(got), len(want))
			}
			for i := range got {
				s, r := got[i], want[i]
				if s.Index != r.Index || !slices.Equal(s.Ops, r.Ops) ||
					math.Float64bits(s.WorkMS) != math.Float64bits(r.WorkMS) || !sameShares(s.Shares, r.Shares) {
					t.Fatalf("%s k=%d stage %d: %s %v %v, reference %s %v %v",
						g.Name, k, i, s.Name(), s.WorkMS, s.Shares, r.Name(), r.WorkMS, r.Shares)
				}
			}
		}
	}
}

// TestBalancedPartitionMatchesReference: the flat DP picks the reference's
// groups for any input, ties included (small integer works tie often).
func TestBalancedPartitionMatchesReference(t *testing.T) {
	f := func(raw []uint8, kRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		work := make([]float64, len(raw))
		for i, r := range raw {
			work[i] = float64(r%8) + 1
		}
		k := int(kRaw)%len(work) + 1
		return slices.Equal(balancedPartition(work, k), refBalancedPartition(work, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
