// Package dnn models deep neural networks as DAGs of costed operations.
//
// The scheduler in this reproduction never executes real tensor math; what it
// needs from a network is (1) the DAG of operations, (2) each operation's
// single-SM work and speedup class, and (3) a partition of the DAG into
// pipeline stages (the paper's sub-tasks τᵢʲ). This package provides all
// three, with an analytic cost model driven by MAC counts and memory traffic
// so that the relative operation costs — and therefore the composed speedup
// behaviour of whole networks (Figure 1's 23x for ResNet18) — are realistic.
package dnn

import (
	"fmt"
	"sync"

	"sgprs/internal/speedup"
)

// Shape is a CHW feature-map shape (batch size is always 1: the paper
// schedules single-frame inference). Vectors use C=length, H=W=1.
type Shape struct {
	C, H, W int
}

// Elems reports the number of elements in the shape.
func (s Shape) Elems() int64 { return int64(s.C) * int64(s.H) * int64(s.W) }

// String renders the shape as "CxHxW".
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.C, s.H, s.W) }

// Op is one operation (kernel) of a network. Ops are identified by their
// index in Graph.Ops; Inputs always reference lower indices, so the op slice
// is a topological order by construction.
type Op struct {
	ID     int
	Name   string
	Class  speedup.Class
	Out    Shape
	MACs   int64 // multiply-accumulate count
	Bytes  int64 // DRAM traffic (activations + weights), bytes
	WorkMS float64
	Inputs []int
}

// Graph is a validated DAG of operations for one network. Once Partition
// has cut a graph, its Ops must not change except through Scale.
type Graph struct {
	Name string
	Ops  []*Op

	// mu guards chains, Partition's memo: the stage chain, or the error,
	// per stage count.
	mu     sync.Mutex
	chains map[int]chain
}

// Validate checks the DAG invariants: non-empty, inputs strictly precede
// their consumers, no dangling references, positive work.
func (g *Graph) Validate() error {
	if g.Name == "" {
		return fmt.Errorf("dnn: graph has no name")
	}
	if len(g.Ops) == 0 {
		return fmt.Errorf("dnn: graph %q has no operations", g.Name)
	}
	for i, op := range g.Ops {
		if op.ID != i {
			return fmt.Errorf("dnn: %q op %d has ID %d", g.Name, i, op.ID)
		}
		if op.WorkMS < 0 {
			return fmt.Errorf("dnn: %q op %s has negative work %v", g.Name, op.Name, op.WorkMS)
		}
		if i > 0 && len(op.Inputs) == 0 {
			return fmt.Errorf("dnn: %q op %s (id %d) has no inputs", g.Name, op.Name, i)
		}
		for _, in := range op.Inputs {
			if in < 0 || in >= i {
				return fmt.Errorf("dnn: %q op %s input %d out of range [0,%d)", g.Name, op.Name, in, i)
			}
		}
	}
	return nil
}

// TotalWorkMS reports the network's total single-SM work in milliseconds.
func (g *Graph) TotalWorkMS() float64 {
	var sum float64
	for _, op := range g.Ops {
		sum += op.WorkMS
	}
	return sum
}

// TotalMACs reports the network's multiply-accumulate count.
func (g *Graph) TotalMACs() int64 {
	var sum int64
	for _, op := range g.Ops {
		sum += op.MACs
	}
	return sum
}

// WorkByClass aggregates single-SM work per speedup class, in class order.
// It is the WorkShare vector feeding speedup.Model.Aggregate.
func (g *Graph) WorkByClass() []speedup.WorkShare { return workShares(g.Ops) }

// Gain reports the whole-network speedup at n effective SMs under model m —
// the "ResNet18" series of Figure 1.
func (g *Graph) Gain(m *speedup.Model, n float64) float64 {
	return m.Aggregate(g.WorkByClass(), n)
}

// LatencyMS reports the isolated single-inference latency at n effective SMs:
// total work divided by the composed gain.
func (g *Graph) LatencyMS(m *speedup.Model, n float64) float64 {
	gain := g.Gain(m, n)
	if gain <= 0 {
		return 0
	}
	return g.TotalWorkMS() / gain
}

// CutPoints lists the indices i such that the graph can be split after op i:
// every edge crossing the cut originates at op i itself, so the stage
// interface is a single tensor and stages form a simple chain (the structure
// the paper's stage pipeline assumes). The final op is never a cut point.
func (g *Graph) CutPoints() []int {
	n := len(g.Ops)
	// maxReach[i] = highest consumer index of op i (or i if none).
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
	// Op i is a cut point when no earlier op reaches past it: reach is the
	// running maximum of maxReach[j] over j < i.
	cuts := make([]int, 0, n)
	reach := -1
	for i := 0; i < n-1; i++ {
		if reach <= i {
			cuts = append(cuts, i)
		}
		reach = max(reach, maxReach[i])
	}
	return cuts
}

// Scale multiplies every op's work by factor, returning g for chaining. It is
// the calibration hook that pins a network's absolute latency to a measured
// target without disturbing relative op costs. It drops Partition's memo, so
// later chains carry the new work; chains cut before keep the old totals.
func (g *Graph) Scale(factor float64) *Graph {
	if factor <= 0 {
		panic(fmt.Sprintf("dnn: scale factor %v must be positive", factor))
	}
	g.mu.Lock()
	g.chains = nil
	g.mu.Unlock()
	for _, op := range g.Ops {
		op.WorkMS *= factor
	}
	return g
}
