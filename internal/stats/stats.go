// Package stats provides the small statistical kit the metrics layer needs:
// the mean and order statistics of a sample whose tail may repeat a block
// (fast-forward replay), without expanding the repeats.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// QuantileSortedRepeated returns the q-quantile (0 ≤ q ≤ 1) of the multiset of
// rest plus m further copies of block, both ascending, without building that
// multiset: linear interpolation between the order statistics of the sorted
// expansion, so the result is the same float bit for bit. It panics on an
// empty multiset or out-of-range q — both are caller bugs, not data
// conditions.
func QuantileSortedRepeated(rest, block []float64, m int, q float64) float64 {
	n := len(rest) + m*len(block)
	if n == 0 {
		panic("stats: quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	if n == 1 {
		return rankRepeated(rest, block, m, 0)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return rankRepeated(rest, block, m, lo)
	}
	frac := float64(pos) - float64(lo)
	return float64(rankRepeated(rest, block, m, lo)*(1-frac)) + float64(rankRepeated(rest, block, m, hi)*frac)
}

// rankRepeated returns the r-th smallest (from 0) element of rest plus m
// copies of block, both ascending. The answer is the smallest element v of
// either slice with more than r elements of the multiset at or below it, so
// a binary search over each slice finds its candidate and the smaller wins.
func rankRepeated(rest, block []float64, m, r int) float64 {
	if m == 0 || len(block) == 0 {
		return rest[r]
	}
	atOrBelow := func(v float64) int {
		return upperBound(rest, v) + m*upperBound(block, v)
	}
	i := sort.Search(len(rest), func(i int) bool { return atOrBelow(rest[i]) > r })
	j := sort.Search(len(block), func(j int) bool { return atOrBelow(block[j]) > r })
	if i == len(rest) || (j < len(block) && block[j] < rest[i]) {
		return block[j]
	}
	return rest[i]
}

// upperBound returns how many elements of ascending s are at or below v.
func upperBound(s []float64, v float64) int {
	return sort.Search(len(s), func(i int) bool { return s[i] > v })
}

// MeanRepeated reports the arithmetic mean (0 for empty input) of xs[:cut],
// then m further copies of the block xs[cut-n:cut], then xs[cut:], without
// building that sequence. It adds the head in order, the copies with
// RepeatedSum and then the tail: the same adds in the same order as a plain
// loop over the sequence, so the same float bit for bit.
func MeanRepeated(xs []float64, cut, n, m int) float64 {
	count := len(xs) + m*n
	if count == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs[:cut] {
		sum += x
	}
	var adds RepeatCounts
	sum = RepeatedSum(sum, xs[cut-n:cut], m, &adds)
	for _, x := range xs[cut:] {
		sum += x
	}
	return sum / float64(count)
}
