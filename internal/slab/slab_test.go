package slab

import (
	"math"
	"testing"
)

// chunkBound is the most chunks an arena may hold after carving peak values
// one at a time: one MinChunk chunk, then chunks that each add a quarter of
// the capacity so far, so capacity grows by 5/4 per chunk.
func chunkBound(peak int) int {
	if peak <= MinChunk {
		return 1
	}
	return 1 + int(math.Ceil(math.Log(float64(peak)/MinChunk)/math.Log(1.25)))
}

// TestArenaGrowthBound: reaching a peak of P values takes O(log P) chunks
// and reserves at most P/4 + MinChunk values beyond the peak.
func TestArenaGrowthBound(t *testing.T) {
	for _, peak := range []int{1, MinChunk - 1, MinChunk, MinChunk + 1, 1000, 100_000} {
		var a Arena[int64]
		for range peak {
			a.New()
		}
		if n, bound := len(a.chunks), chunkBound(peak); n > bound {
			t.Errorf("peak %d: %d chunks, want ≤ %d", peak, n, bound)
		}
		if limit := peak + peak/4 + MinChunk; a.total > limit {
			t.Errorf("peak %d: %d values reserved, want ≤ %d (1.25·peak + MinChunk)", peak, a.total, limit)
		}
		carved := 0
		a.Each(func(*int64) { carved++ })
		if carved != peak {
			t.Errorf("peak %d: Each visits %d values", peak, carved)
		}
	}
}

// TestArenaTakeIsolated: Take returns zeroed, contiguous values that nothing
// else is carved from, whose capacity stops at their end, and Each visits
// every carved value once in carve order, skipping a chunk's unused tail.
func TestArenaTakeIsolated(t *testing.T) {
	var a Arena[int]
	var all []*int
	for i, n := range []int{3, MinChunk, 7, 1, 2 * MinChunk, 5} {
		s := a.Take(n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("Take(%d) returned len %d cap %d", n, len(s), cap(s))
		}
		for j := range s {
			if s[j] != 0 {
				t.Fatalf("Take(%d)[%d] = %d, want zero", n, j, s[j])
			}
			s[j] = 100*i + j
			all = append(all, &s[j])
		}
		_ = append(s, -1) // must reallocate, not write into a neighbour
	}
	i := 0
	a.Each(func(v *int) {
		if i >= len(all) || v != all[i] {
			t.Fatalf("Each value %d is not the %d-th carved value", *v, i)
		}
		i++
	})
	if i != len(all) {
		t.Fatalf("Each visited %d values, want %d", i, len(all))
	}
	for _, v := range all {
		if *v < 0 {
			t.Fatal("an append past a Take overwrote a carved value")
		}
	}
}

// TestArenaNewAllocs: carving from an open chunk allocates nothing.
func TestArenaNewAllocs(t *testing.T) {
	var a Arena[[4]int64]
	a.New()
	if n := testing.AllocsPerRun(MinChunk/2, func() { a.New() }); n != 0 {
		t.Errorf("New from an open chunk allocates %v times, want 0", n)
	}
}

// TestReuse: Reuse hands back the structs a truncated slice left past its
// length, in order, and allocates a new one past the last.
func TestReuse(t *testing.T) {
	var s []*int
	var first []*int
	for range 3 {
		var p *int
		s, p = Reuse(s)
		first = append(first, p)
	}
	s = s[:0]
	for i := range 4 {
		var p *int
		s, p = Reuse(s)
		if i < len(first) && p != first[i] {
			t.Fatalf("Reuse %d allocated instead of handing back struct %d", i, i)
		}
		if p == nil || len(s) != i+1 || s[i] != p {
			t.Fatalf("Reuse %d returned len %d, element %p", i, len(s), p)
		}
	}
}
