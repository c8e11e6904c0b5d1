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
	o.m2 += d * (x - o.mean)
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
	if len(s) == 0 {
		panic("stats: quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean reports the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
