// Package slab carves values out of chunks that grow geometrically, for the
// simulation's recycling pools (rt.JobPool, the gpu device's kernel free
// list). A pool that allocated its structs one at a time paid one heap
// allocation per struct the first time a run reached a new peak — thousands
// of them past the pivot point, where the naive baseline's backlog keeps
// thousands of jobs and kernels live at once. An Arena pays O(log peak)
// allocations instead, and keeps its unused reserve bounded by about a
// quarter of the peak (DESIGN.md §8). Reuse is the matching rule for the
// structs a session keeps between runs behind truncated pointer slices.
package slab

// MinChunk is the smallest chunk an Arena allocates, in values.
const MinChunk = 32

// minChunks is the capacity of an Arena's first chunk list.
const minChunks = 16

// Arena hands out values carved from chunks. Each new chunk holds a quarter
// of everything allocated so far (at least MinChunk values, and at least the
// request), so reaching a peak of P values takes O(log P) chunk allocations
// and leaves at most about P/4 + MinChunk values carved from no request.
//
// Carved values are never returned to the arena: the pool built on it keeps
// them on its own free list. The zero Arena is empty and ready to use; it is
// not safe for concurrent use.
type Arena[T any] struct {
	// chunks are resliced to their carved length; the capacity beyond it
	// is the last chunk's reserve (earlier chunks' tails stay unused when
	// a Take did not fit them).
	chunks [][]T
	total  int // capacity over all chunks
}

// New returns a pointer to a zeroed value carved from the arena.
func (a *Arena[T]) New() *T { return &a.Take(1)[0] }

// Take carves n contiguous zeroed values from the arena, opening a new chunk
// when the current one has fewer than n left. The returned slice's capacity
// is n, so appending to it never overwrites a neighbour.
func (a *Arena[T]) Take(n int) []T {
	last := len(a.chunks) - 1
	if last < 0 || len(a.chunks[last])+n > cap(a.chunks[last]) {
		size := max(MinChunk, a.total/4, n)
		if a.chunks == nil {
			// Room for the chunks of a peak of ~1,800 values, so the
			// list itself rarely grows.
			a.chunks = make([][]T, 0, minChunks)
		}
		a.chunks = append(a.chunks, make([]T, 0, size))
		a.total += size
		last++
	}
	c := a.chunks[last]
	lo := len(c)
	a.chunks[last] = c[:lo+n]
	return c[lo : lo+n : lo+n]
}

// Each calls f on every value carved so far, in carve order.
func (a *Arena[T]) Each(f func(*T)) {
	for _, c := range a.chunks {
		for i := range c {
			f(&c[i])
		}
	}
}

// Reuse extends s by one element and returns the extended slice with that
// element: the struct an earlier use of the backing array left past len(s),
// or a new zero one. Callers that truncate a slice of pointers to length 0
// between runs get their structs back this way and reinitialise them.
func Reuse[T any](s []*T) ([]*T, *T) {
	n := len(s)
	if n < cap(s) && s[:n+1][n] != nil {
		s = s[:n+1]
	} else {
		s = append(s, new(T))
	}
	return s, s[n]
}
