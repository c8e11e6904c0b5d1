package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
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

// Quantile is QuantileSortedRepeated over a copy of xs sorted, without
// repeats: the plain sample quantile the repeated form must reproduce.
func Quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return QuantileSorted(s, q)
}

// QuantileSorted is Quantile for input already in ascending order.
func QuantileSorted(s []float64, q float64) float64 {
	return QuantileSortedRepeated(s, nil, 0, q)
}

// Mean is MeanRepeated without repeats: the plain mean.
func Mean(xs []float64) float64 { return MeanRepeated(xs, 0, 0, 0) }

func TestOnlineMoments(t *testing.T) {
	var o Online
	if o.N() != 0 || o.Mean() != 0 || o.Var() != 0 {
		t.Error("zero value should be empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if o.N() != 8 {
		t.Errorf("n = %d", o.N())
	}
	if math.Abs(o.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", o.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if math.Abs(o.Var()-32.0/7) > 1e-12 {
		t.Errorf("var = %v, want %v", o.Var(), 32.0/7)
	}
	if math.Abs(o.Std()-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("std = %v", o.Std())
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Errorf("min/max = %v/%v", o.Min(), o.Max())
	}
}

func TestOnlineSingleSample(t *testing.T) {
	var o Online
	o.Add(3)
	if o.Mean() != 3 || o.Var() != 0 || o.Min() != 3 || o.Max() != 3 {
		t.Errorf("single sample stats wrong: %+v", o)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("q%.2f = %v, want %v", c.q, got, c.want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{10, 20}, 0.5); got != 15 {
		t.Errorf("median of {10,20} = %v, want 15", got)
	}
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single-element quantile = %v", got)
	}
	// Input must not be mutated (sorted copy).
	in := []float64{3, 1, 2}
	Quantile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
}

// Property: Online mean/min/max agree with direct computation.
func TestOnlineAgreesWithDirect(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		var o Online
		var xs []float64
		for _, r := range raw {
			x := float64(r)
			xs = append(xs, x)
			o.Add(x)
		}
		mn, mx := xs[0], xs[0]
		for _, x := range xs {
			mn = math.Min(mn, x)
			mx = math.Max(mx, x)
		}
		return math.Abs(o.Mean()-Mean(xs)) < 1e-6 && o.Min() == mn && o.Max() == mx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []int16, q1, q2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		a := float64(q1%101) / 100
		b := float64(q2%101) / 100
		if a > b {
			a, b = b, a
		}
		qa, qb := Quantile(xs, a), Quantile(xs, b)
		return qa <= qb+1e-9 &&
			qa >= Quantile(xs, 0)-1e-9 &&
			qb <= Quantile(xs, 1)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRepeatedViewsMatchExpansion pins MeanRepeated and
// QuantileSortedRepeated against Mean and QuantileSorted over the sequence
// they stand for, built out: random heads, blocks and tails, with repeated
// values so ranks straddle ties, and multiplicities from 0 up.
func TestRepeatedViewsMatchExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 2000; trial++ {
		xs := make([]float64, 1+rng.Intn(12))
		for i := range xs {
			xs[i] = float64(rng.Intn(6)) * 0.37 * float64(1+rng.Intn(3))
		}
		cut := rng.Intn(len(xs) + 1)
		n := rng.Intn(cut + 1)
		m := []int{0, 1, 2, 7, 300}[rng.Intn(5)]
		var full []float64
		full = append(full, xs[:cut]...)
		for range m {
			full = append(full, xs[cut-n:cut]...)
		}
		full = append(full, xs[cut:]...)
		if got, want := MeanRepeated(xs, cut, n, m), Mean(full); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: MeanRepeated = %v, Mean of expansion = %v", trial, got, want)
		}
		rest := append([]float64(nil), xs...)
		block := append([]float64(nil), xs[cut-n:cut]...)
		sort.Float64s(rest)
		sort.Float64s(block)
		sort.Float64s(full)
		for _, q := range []float64{0, 0.25, 0.5, 0.99, 0.999, 1, rng.Float64()} {
			got := QuantileSortedRepeated(rest, block, m, q)
			if want := QuantileSorted(full, q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d q=%v: QuantileSortedRepeated = %v, expansion = %v", trial, q, got, want)
			}
		}
	}
}
