// Package stats provides the small statistical kit the metrics and report
// layers need: online mean/variance, order statistics, and histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Online accumulates count, mean, and variance in one pass (Welford).
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds a value into the accumulator.
func (o *Online) Add(x float64) {
	if o.n == 0 {
		o.min, o.max = x, x
	} else {
		o.min = math.Min(o.min, x)
		o.max = math.Max(o.max, x)
	}
	o.n++
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += float64(d * (x - o.mean))
}

// N reports the number of samples.
func (o *Online) N() int { return o.n }

// Mean reports the sample mean (0 with no samples).
func (o *Online) Mean() float64 { return o.mean }

// Var reports the unbiased sample variance (0 with fewer than two samples).
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Std reports the sample standard deviation.
func (o *Online) Std() float64 { return math.Sqrt(o.Var()) }

// Min reports the smallest sample (0 with no samples).
func (o *Online) Min() float64 { return o.min }

// Max reports the largest sample (0 with no samples).
func (o *Online) Max() float64 { return o.max }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics. It panics on an empty slice or out-of-range q —
// both are caller bugs, not data conditions.
func Quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return QuantileSorted(s, q)
}

// QuantileSorted is Quantile for input already in ascending order: callers
// that need several quantiles of one sample sort once and read many, instead
// of paying Quantile's copy-and-sort per call. Same interpolation, same
// panics — Quantile delegates here, so the two cannot drift.
func QuantileSorted(s []float64, q float64) float64 {
	return QuantileSortedRepeated(s, nil, 0, q)
}

// QuantileSortedRepeated is QuantileSorted over the multiset of rest plus m
// further copies of block, both ascending, without building that multiset.
// It reads the order statistics QuantileSorted would read from the sorted
// expansion and interpolates them the same way, so the result is the same
// float bit for bit. With m == 0 it is QuantileSorted(rest, q).
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

// Mean reports the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 { return MeanRepeated(xs, 0, 0, 0) }

// MeanRepeated is Mean over xs[:cut], then m further copies of the block
// xs[cut-n:cut], then xs[cut:], without building that sequence. It adds the
// head in order, the copies with RepeatedSum and then the tail: the same
// adds in the same order, so the same float bit for bit.
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
