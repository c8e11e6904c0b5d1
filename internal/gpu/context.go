package gpu

import (
	"fmt"

	"sgprs/internal/slab"
)

// Priority is a CUDA stream priority. The hardware exposes two levels; the
// scheduler's third, logical "medium" level (promoted stages) is mapped onto
// these by the scheduling layer.
type Priority int

// Stream priorities. HighPriority streams receive a larger SM share when
// competing inside one context, modelling the preferential block dispatch of
// CUDA priority streams.
const (
	LowPriority Priority = iota
	HighPriority
)

// String names the priority for traces.
func (p Priority) String() string {
	switch p {
	case LowPriority:
		return "low"
	case HighPriority:
		return "high"
	default:
		return fmt.Sprintf("priority(%d)", int(p))
	}
}

// Priority SM-sharing weights. They are small exact integers on purpose:
// per-context weight sums maintained with += / -= as kernels start and
// finish stay exact (integer float arithmetic never rounds below 2⁵³), so
// the tracked sums the rate sweep reads are bit-identical to re-deriving
// them from the running set (DESIGN.md §10).
const (
	lowWeight  = 1
	highWeight = 3
)

// weight is the SM-sharing weight within a context. High-priority kernels get
// a 3:1 edge over low-priority ones, approximating CUDA's greedy
// high-priority block scheduling without full preemption.
func (p Priority) weight() float64 {
	if p == HighPriority {
		return highWeight
	}
	return lowWeight
}

// Context is a pre-created CUDA-like context owning a fixed SM allocation.
// Moving work between contexts carries no reconfiguration cost — the
// "seamless partition switch" that SGPRS exploits. Streams are created once,
// up front, mirroring the paper's fixed two-high/two-low layout.
type Context struct {
	device  *Device
	id      int
	name    string
	sms     int
	streams []*Stream

	activeKernels int // kernels currently executing in this context

	// weightSum is the summed priority weight of the context's running
	// kernels, maintained by Device.start/complete instead of being
	// re-derived from the running set on every recompute — exact, because
	// weights are small integers (DESIGN.md §10).
	weightSum float64

	// shares holds the intra-context SM share of each priority at the
	// latest recompute, indexed by Priority. A context's kernels can take
	// only two distinct weights, so the share expression alloc·w/weightSum
	// has only two distinct values — computed once per context instead of
	// once per kernel, with byte-identical arithmetic. Indexing instead of
	// testing the priority keeps the sweep's per-kernel path branch-free.
	shares [2]float64
	// capped marks a context waterfill has capped at its own allocation
	// in the current sweep.
	capped bool
}

// setShares precomputes both priority shares at the given SM allocation.
// Only meaningful for busy contexts (weightSum > 0).
func (c *Context) setShares(alloc float64) {
	c.shares[LowPriority] = alloc * lowWeight / c.weightSum
	c.shares[HighPriority] = alloc * highWeight / c.weightSum
}

// share reads the precomputed share for k's priority.
func (c *Context) share(k *Kernel) float64 { return c.shares[k.stream.priority] }

// ID reports the context's index in creation order.
func (c *Context) ID() int { return c.id }

// Name reports the diagnostic name.
func (c *Context) Name() string { return c.name }

// Device reports the device the context belongs to.
func (c *Context) Device() *Device { return c.device }

// SMs reports the context's SM allocation.
func (c *Context) SMs() int { return c.sms }

// Streams lists the context's streams in creation order.
func (c *Context) Streams() []*Stream { return c.streams }

// AddStream creates a stream with the given priority, which must be
// LowPriority or HighPriority: any other value is a programming error and
// panics.
func (c *Context) AddStream(name string, p Priority) *Stream {
	if p != LowPriority && p != HighPriority {
		panic(fmt.Sprintf("gpu: stream %q has %v, want low or high", name, p))
	}
	// Streams of a context reused after a device reset are reused too,
	// with their queue arrays.
	var s *Stream
	c.streams, s = slab.Reuse(c.streams)
	clear(s.queue)
	*s = Stream{
		ctx:      c,
		id:       len(c.streams) - 1,
		name:     name,
		priority: p,
		queue:    s.queue[:0],
	}
	return s
}

// Busy reports whether any stream of the context is occupied (running or
// queued work).
func (c *Context) Busy() bool {
	for _, s := range c.streams {
		if s.Busy() {
			return true
		}
	}
	return false
}

// String renders "ctx0(name,34sm)".
func (c *Context) String() string {
	return fmt.Sprintf("ctx%d(%s,%dsm)", c.id, c.name, c.sms)
}
