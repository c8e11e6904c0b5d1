package stats

import (
	"math"
	"math/rand"
	"testing"
)

// naiveRepeat is the loop RepeatedSum stands in for.
func naiveRepeat(s float64, ops []float64, k int) float64 {
	for c := 0; c < k; c++ {
		for _, a := range ops {
			s += a
		}
	}
	return s
}

func checkRepeat(t *testing.T, name string, s float64, ops []float64, k int) RepeatCounts {
	t.Helper()
	var n RepeatCounts
	got := RepeatedSum(s, ops, k, &n)
	want := naiveRepeat(s, ops, k)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: RepeatedSum(%v, %v, %d) = %v (%#x), naive loop %v (%#x)",
			name, s, ops, k, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if n.Adds != n.Cycles*uint64(len(ops)) {
		t.Fatalf("%s: %d adds for %d explicit cycles of %d operands", name, n.Adds, n.Cycles, len(ops))
	}
	if k > 0 && len(ops) > 0 && n.Cycles > uint64(k) {
		t.Fatalf("%s: %d explicit cycles for k = %d", name, n.Cycles, k)
	}
	return n
}

func TestRepeatedSumCases(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	cases := []struct {
		name string
		s    float64
		ops  []float64
		k    int
	}{
		{"k=0", 3.5, []float64{0.1, 0.2}, 0},
		{"k=1", 3.5, []float64{0.1, 0.2}, 1},
		{"no operands", 3.5, nil, 100},
		{"s=0", 0, []float64{0.1, 0.7, 1e-3}, 5000},
		{"zeros", 1.25, []float64{0, 0, 0}, 1000},
		{"zeros from s=0", 0, []float64{0, 0}, 1000},
		// 1 + 2^-53 is a tie between 1 and 1+2^-52: rounding alternates
		// with the last bit of s.
		{"tie at one ulp", 1, []float64{0x1p-53}, 5000},
		{"tie with odd s", 1 + 0x1p-52, []float64{0x1p-53, 0x1p-52}, 5000},
		{"dyadic ties", 1024, []float64{0.5, 0.25, 0.125, 3}, 5000},
		{"absorbed below half an ulp", 1e16, []float64{0.4, 0.3}, 100000},
		{"subnormal operands", 0, []float64{sub, 3 * sub, 0.5 * sub}, 10000},
		{"subnormal into normal", 0x1p-1022 - 40*sub, []float64{7 * sub}, 1000},
		{"crossing inside one cycle", 0x1p10 - 0.75, []float64{0.5, 0.5, 0.5}, 3},
		{"crossing many binades", 1e-3, []float64{0.3, 1.7, 5e-4}, 200000},
		// An operand at least the room left in the binade: Δ would not
		// fit, so the cycle goes explicitly.
		{"operand past the room", 1.5, []float64{0.75, 1e-9}, 50},
		{"operand far past the room", 1e-300, []float64{1e300, 1e-310}, 20},
		{"near overflow", math.MaxFloat64 / 4, []float64{math.MaxFloat64 / 8}, 4},
		{"negative operand", 10, []float64{0.25, -0.5}, 1000},
		{"negative s", -100, []float64{0.3, 0.7}, 1000},
		{"negative zero s", math.Copysign(0, -1), []float64{0, math.Copysign(0, -1)}, 10},
		{"negative zero operand", 1, []float64{math.Copysign(0, -1), 0.1}, 1000},
		{"NaN operand", 1, []float64{0.25, math.NaN()}, 10},
		{"NaN s", math.NaN(), []float64{1}, 10},
		{"Inf operand", 1, []float64{math.Inf(1)}, 10},
		{"Inf s", math.Inf(1), []float64{1}, 10},
		{"-Inf s", math.Inf(-1), []float64{1}, 10},
	}
	for _, c := range cases {
		checkRepeat(t, c.name, c.s, c.ops, c.k)
	}
	// Each operand sits just below 2^53 ulps of s = 0: 2049 of them sum to
	// just past 2^64, so Δ must be cut off at the room, not left to wrap
	// to a small count.
	wide := make([]float64, 2049)
	for i := range wide {
		wide[i] = 0x1p-1021 - sub
	}
	checkRepeat(t, "Δ past the room", 0, wide, 3)
	// k too large for the naive loop: 2^-60 is far below half an ulp of
	// 1, so every add is absorbed and one jump covers all math.MaxInt
	// cycles, whatever the word size.
	var n RepeatCounts
	if got := RepeatedSum(1, []float64{0x1p-60}, math.MaxInt, &n); got != 1 || n.Cycles != 0 || n.Jumps != 1 {
		t.Fatalf("huge k: got %v after %+v, want 1 in one jump", got, n)
	}
}

// TestRepeatedSumJumps pins that the fast path engages: without ties a
// replay crosses each binade in about one jump and one explicit cycle.
func TestRepeatedSumJumps(t *testing.T) {
	ops := []float64{0.1, 0.37, 1.3e-3, 2.9}
	n := checkRepeat(t, "jumps", 12.3, ops, 100000)
	if n.Jumps == 0 || n.Cycles > 40 {
		t.Fatalf("100000 cycles took %d jumps and %d explicit cycles", n.Jumps, n.Cycles)
	}
}

// TestRepeatedSumRandomized compares RepeatedSum with the naive loop bit
// for bit over random operand families: generic floats, dyadic operands that
// force ties, operands far below one ulp, subnormals, zeros, and operands
// that dwarf s.
func TestRepeatedSumRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(48)
		k := rng.Intn(3000)
		ops := make([]float64, n)
		var s float64
		switch fam := trial % 6; fam {
		case 0: // generic
			scale := math.Ldexp(1, rng.Intn(40)-20)
			for i := range ops {
				ops[i] = rng.Float64() * scale
			}
			s = rng.Float64() * scale * float64(rng.Intn(3))
		case 1: // dyadic: small integers over powers of two tie often
			for i := range ops {
				ops[i] = math.Ldexp(float64(rng.Intn(16)), -rng.Intn(6))
			}
			s = math.Ldexp(float64(rng.Intn(1<<20)), -rng.Intn(8))
		case 2: // tiny against s: mostly absorbed, some rounding up
			s = math.Ldexp(1+rng.Float64(), 20+rng.Intn(20))
			ulp := math.Ldexp(1, binadeExp(s)-52)
			for i := range ops {
				ops[i] = ulp * rng.Float64() * 1.5
			}
		case 3: // subnormal
			for i := range ops {
				ops[i] = float64(rng.Intn(64)) * math.SmallestNonzeroFloat64 / float64(int(1)<<rng.Intn(2))
			}
			s = float64(rng.Intn(1000)) * math.SmallestNonzeroFloat64
		case 4: // zeros mixed with generic operands, s = 0
			for i := range ops {
				if rng.Intn(2) == 0 {
					ops[i] = rng.Float64()
				}
			}
		case 5: // one operand dwarfs s
			s = rng.Float64() * 1e-6
			for i := range ops {
				ops[i] = rng.Float64() * 1e-9
			}
			ops[rng.Intn(n)] = rng.Float64() * 1e3
		}
		checkRepeat(t, "randomized", s, ops, k)
	}
}

// BenchmarkRepeatedSum compares the helper against the naive loop on one
// replay of the size a 300 s steady-state cell performs: a few dozen
// operands of sub-millisecond work, about 8,500 cycles.
func BenchmarkRepeatedSum(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ops := make([]float64, 40)
	for i := range ops {
		ops[i] = rng.Float64() * 0.5
	}
	const k = 8500
	b.Run("helper", func(b *testing.B) {
		var n RepeatCounts
		for b.Loop() {
			RepeatedSum(1234.5, ops, k, &n)
		}
		b.ReportMetric(float64(n.Adds)/float64(b.N), "adds/op")
	})
	b.Run("naive", func(b *testing.B) {
		for b.Loop() {
			naiveRepeat(1234.5, ops, k)
		}
		b.ReportMetric(float64(k*len(ops)), "adds/op")
	})
}
