package stats

import "math"

// RepeatCounts tallies how RepeatedSum reached its results: the float adds
// it performed one by one, the cycles those adds made up, and the
// multi-cycle jumps it took in integer ulps instead.
type RepeatCounts struct {
	Adds   uint64
	Cycles uint64
	Jumps  uint64
}

// RepeatedSum returns exactly the float64 that
//
//	for c := 0; c < k; c++ { for _, a := range ops { s += a } }
//
// leaves in s, bit for bit, without performing the k·len(ops) adds when it
// can avoid them. The work it does is added to n.
//
// The argument: let every operand and s be non-negative and finite, and let
// s lie in a binade [2^e, 2^(e+1)) with ulp u = 2^(e−52) (the subnormals
// and the lowest normal binade share u = 2^−1074 and count as one). Every
// float in that binade is a multiple of u, so while a sum stays inside it,
// fl(s + a) = s + RN(a/u)·u — unless a/u has fractional part exactly ½, a
// tie whose rounding depends on the last bit of s. Without ties one cycle
// therefore moves s by a fixed integer Δ = Σ RN(a/u) ulps, and j cycles move
// it by j·Δ as long as the result stays below 2^(e+1). The sum only grows,
// so the end of the jump is its largest value. RepeatedSum jumps the most
// cycles that stay inside the binade, and adds one cycle explicitly where
// a cycle contains a tie or would cross into the next binade, then
// recomputes Δ for the binade it lands in. With a negative (sign bit set),
// NaN or infinite operand every cycle is added explicitly — the naive loop —
// and so is every cycle that starts from such an s.
func RepeatedSum(s float64, ops []float64, k int, n *RepeatCounts) float64 {
	exact := allNonNegFinite(ops)
	for k > 0 && len(ops) > 0 {
		// A negative s may climb to ≥ 0 over explicit cycles, and an
		// explicit cycle may overflow to +Inf, so s is checked each time.
		if exact && nonNegFinite(s) {
			e := binadeExp(s)
			m := uint64(math.Ldexp(s, 52-e)) // s = m·u exactly, m < 2^53
			room := uint64(1)<<53 - m        // ulps left below 2^(e+1)
			if delta, ok := cycleUlps(ops, e, room); ok {
				j := uint64(k)
				if delta > 0 && (room-1)/delta < j {
					j = (room - 1) / delta
				}
				if j > 0 {
					s = math.Ldexp(float64(m+j*delta), e-52)
					k -= int(j)
					n.Jumps++
					continue
				}
			}
		}
		s = addCycle(s, ops, n)
		k--
	}
	return s
}

// addCycle adds one cycle of operands in order.
func addCycle(s float64, ops []float64, n *RepeatCounts) float64 {
	for _, a := range ops {
		s += a
	}
	n.Adds += uint64(len(ops))
	n.Cycles++
	return s
}

// cycleUlps returns the ulps Δ one cycle of ops moves a sum inside the binade
// of exponent e, and false when that is not a fixed integer or does not fit:
// an operand is a tie, or Δ reaches room.
func cycleUlps(ops []float64, e int, room uint64) (uint64, bool) {
	lim := float64(room)
	var delta uint64
	for _, a := range ops {
		q := math.Ldexp(a, 52-e) // a/u, exact below 2^53
		if q >= lim {
			return 0, false
		}
		f := math.Floor(q)
		r := uint64(f)
		switch frac := q - f; {
		case frac == 0.5:
			return 0, false
		case frac > 0.5:
			r++
		}
		delta += r
		if delta >= room {
			return 0, false
		}
	}
	return delta, true
}

// binadeExp returns e such that 0 ≤ s < 2^(e+1) and the floats of the
// binade holding s are the multiples of 2^(e−52). Zero and subnormal s
// share the lowest normal binade's spacing, 2^−1074.
func binadeExp(s float64) int {
	const minExp = -1022
	if s < 0x1p-1021 {
		return minExp
	}
	_, exp := math.Frexp(s)
	return exp - 1
}

func nonNegFinite(x float64) bool {
	return !math.Signbit(x) && x <= math.MaxFloat64
}

func allNonNegFinite(xs []float64) bool {
	for _, x := range xs {
		if !nonNegFinite(x) {
			return false
		}
	}
	return true
}
