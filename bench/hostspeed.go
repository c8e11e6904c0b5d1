package main

import "time"

// The benchmark runs on shared machines whose speed drifts by tens of
// percent within minutes, as other tenants load the cores they share with
// it. So every timed unit of work, a cell or a set-up, is followed by one
// chunk of a fixed reference kernel, and the unit's time is divided by the
// chunk's slowdown: its time over refNominal. Timings then read as they
// would on a host where the chunk takes refNominal. The kernel is this
// program's own code, so no change to the simulator moves it.

// refNominal is about the reference chunk's typical time on the 2-vCPU Xeon
// VM the baseline in README.md was taken on, so timings there read close to
// wall time.
const refNominal = 300 * time.Microsecond

// refIters is the chunk's work: this many updates of the heap.
const refIters = 3000

// ref is the reference kernel's memory: a 32 KiB binary min-heap.
var ref = struct {
	heap []float64
	rng  uint64
	sink float64 // keeps the warming reads
}{heap: make([]float64, 1<<12), rng: 88172645463325252}

// slowdown runs one reference chunk and returns its time over refNominal.
//
// The heap is read once before the clock starts, so the chunk always finds
// it in the core's caches: how much of it the preceding cell evicted, which
// a change to the simulator could alter, does not reach the timing.
func slowdown() float64 {
	h, x := ref.heap, ref.rng
	for i := 0; i < len(h); i += 8 { // one read per 64-byte line
		ref.sink += h[i]
	}
	start := time.Now()
	for range refIters {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Raise the minimum a little and sift it down.
		v := h[0] + float64(x&1023)*1e-3
		i := 0
		for {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1] < h[c] {
				c++
			}
			if h[c] >= v {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = v
	}
	d := time.Since(start)
	ref.rng = x
	return float64(d) / float64(refNominal)
}
