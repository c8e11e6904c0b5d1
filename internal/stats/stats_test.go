package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

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
