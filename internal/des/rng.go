package des

import "math"

// RNG is a small, fast, deterministic pseudo-random generator (splitmix64).
// Every stochastic element of the simulation draws from its own RNG stream so
// that adding or removing one consumer never perturbs another — a requirement
// for reproducible sweeps.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded from seed. Distinct seeds yield
// statistically independent streams.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Fork derives an independent child stream. The child is a pure function of
// the parent's seed and the salt, not of how many values the parent has
// drawn, so forks are order-independent.
func (r *RNG) Fork(salt uint64) *RNG {
	return NewRNG(mix(r.state ^ mix(salt^0x9e3779b97f4a7c15)))
}

func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation (Box-Muller).
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + float64(stddev*z)
}

// TruncNormal returns a normal draw clamped to [lo, hi].
func (r *RNG) TruncNormal(mean, stddev, lo, hi float64) float64 {
	v := r.Normal(mean, stddev)
	return math.Max(lo, math.Min(hi, v))
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}
