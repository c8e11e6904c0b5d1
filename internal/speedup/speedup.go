// Package speedup models how GPU kernel throughput scales with the number of
// streaming multiprocessors (SMs) assigned to it.
//
// The paper's Section III measures, on an RTX 2080 Ti (68 SMs) with ResNet18
// kernels running in isolation, that convolution reaches a 32x gain, max
// pooling 14x, every other operation stays below 7x, and the full ResNet18
// composes to only 23x. Linear speedup is not realistic on GPUs; this package
// captures that with saturating rational curves
//
//	gain(n) = A·n / (n + B)
//
// where B is the SM count at which the curve reaches half of its asymptote A.
// Compute-bound kernels (convolution) have large B (they keep scaling);
// memory- or launch-bound kernels saturate early (small B).
package speedup

import (
	"fmt"
)

// DeviceSMs is the SM count of the modelled device (NVIDIA RTX 2080 Ti).
const DeviceSMs = 68

// Class identifies the scaling behaviour of an operation. All operations of
// one class share a speedup curve, mirroring the per-operation measurement in
// the paper's Figure 1.
type Class int

// Operation classes, ordered as in the paper's Figure 1 legend.
const (
	Conv Class = iota
	MaxPool
	AvgPool
	ReLU
	BatchNorm
	Linear
	Add
	Softmax
	// NumClasses is the number of operation classes; a Class indexes
	// arrays of this length.
	NumClasses
)

var classNames = [...]string{
	Conv:      "conv",
	MaxPool:   "maxpool",
	AvgPool:   "avgpool",
	ReLU:      "relu",
	BatchNorm: "batchnorm",
	Linear:    "linear",
	Add:       "add",
	Softmax:   "softmax",
}

// String returns the lower-case operation name used in reports.
func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// Classes lists every operation class in display order.
func Classes() []Class {
	out := make([]Class, NumClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// Curve is a saturating speedup curve gain(n) = A·n/(n+B). The zero Curve is
// invalid; construct curves with NewCurve or take them from a Model.
type Curve struct {
	A float64 // asymptotic gain as n → ∞
	B float64 // SM count at half of the asymptote
}

// NewCurve builds the unique saturating curve anchored at gain(1) = 1 that
// passes through gain(DeviceSMs) = gainAtFull. Anchoring at one SM makes the
// modelled gain directly comparable to a measured speedup ratio
// t(1 SM)/t(n SMs), which is how the paper's Figure 1 is produced. It panics
// unless 1 < gainAtFull < DeviceSMs: gains at or below 1 mean the operation
// does not scale at all, and super-linear gains are not representable by a
// saturating curve (nor realistic on GPUs, as the paper argues).
func NewCurve(gainAtFull float64) Curve {
	if gainAtFull <= 1 || gainAtFull >= DeviceSMs {
		panic(fmt.Sprintf("speedup: gain at full device must be in (1, %d), got %v", DeviceSMs, gainAtFull))
	}
	// Solve A·1/(1+B) = 1 and A·68/(68+B) = g: B = 68(g−1)/(68−g).
	b := DeviceSMs * (gainAtFull - 1) / (DeviceSMs - gainAtFull)
	return Curve{A: 1 + b, B: b}
}

// Gain reports the speedup over a single SM when the kernel holds n effective
// SMs. Fractional n is meaningful: it models a partition share under
// contention. Curves from NewCurve satisfy Gain(1) = 1 exactly.
func (c Curve) Gain(n float64) float64 {
	if n <= 0 {
		return 0
	}
	return c.A * n / (n + c.B)
}

// Model maps every operation class to its speedup curve.
type Model struct {
	curves [NumClasses]Curve
}

// NewModel builds a model from explicit per-class curves. Classes absent from
// the map panic: silently defaulting a class would skew every WCET downstream.
func NewModel(curves map[Class]Curve) *Model {
	m := &Model{}
	for _, cl := range Classes() {
		c, ok := curves[cl]
		if !ok {
			panic(fmt.Sprintf("speedup: model missing class %v", cl))
		}
		m.curves[cl] = c
	}
	return m
}

// DefaultModel returns the RTX 2080 Ti fit used throughout the reproduction.
// Full-device gains: conv 32x, maxpool 14x, avgpool 7x, and the remaining
// classes between 3x and 6x — matching the paper's Figure 1 ("the convolution
// operation reaches the best speedup gain (32x) followed by max pooling
// (14x); other operations failed to exceed 7x").
func DefaultModel() *Model {
	return NewModel(map[Class]Curve{
		Conv:      NewCurve(32), // compute-bound: keeps scaling
		MaxPool:   NewCurve(14),
		AvgPool:   NewCurve(7),
		ReLU:      NewCurve(6), // memory-bound: early saturation
		BatchNorm: NewCurve(5.5),
		Linear:    NewCurve(3), // tiny kernel: launch-bound
		Add:       NewCurve(4.5),
		Softmax:   NewCurve(3.5),
	})
}

// Curve returns the curve for class cl.
func (m *Model) Curve(cl Class) Curve {
	if cl < 0 || cl >= NumClasses {
		panic(fmt.Sprintf("speedup: unknown class %v", cl))
	}
	return m.curves[cl]
}

// Gain reports the speedup of class cl at n effective SMs.
func (m *Model) Gain(cl Class, n float64) float64 { return m.Curve(cl).Gain(n) }

// WorkShare is one component of a composite kernel: Work single-SM
// milliseconds of class Class.
type WorkShare struct {
	Class Class
	Work  float64
}

// Aggregate reports the effective speedup of a composite kernel — a weighted
// harmonic mean, because the components execute sequentially:
//
//	gain = ΣW / Σ(Wᵢ / gainᵢ(n))
//
// This is how the whole-ResNet18 curve of Figure 1 (23x, below conv's 32x)
// emerges from the per-operation curves. Zero total work yields zero gain.
func (m *Model) Aggregate(parts []WorkShare, n float64) float64 {
	var total, scaled float64
	for _, p := range parts {
		if p.Work < 0 {
			panic(fmt.Sprintf("speedup: negative work %v for %v", p.Work, p.Class))
		}
		if p.Work == 0 {
			continue
		}
		g := m.Gain(p.Class, n)
		if g <= 0 {
			return 0
		}
		total += p.Work
		scaled += p.Work / g
	}
	if total == 0 || scaled == 0 {
		return 0
	}
	return total / scaled
}

// Table samples gain curves at the given SM counts for every class, in class
// order — the data series behind Figure 1.
func (m *Model) Table(smCounts []int) map[Class][]float64 {
	out := make(map[Class][]float64, NumClasses)
	for _, cl := range Classes() {
		row := make([]float64, len(smCounts))
		for i, n := range smCounts {
			row[i] = m.Gain(cl, float64(n))
		}
		out[cl] = row
	}
	return out
}
