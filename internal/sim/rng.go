package sim

import "math"

// Rand is a small, fast, deterministic PRNG (xorshift64*). Every stochastic
// component of the simulator owns its own Rand seeded from the run seed, so
// adding or removing one consumer never perturbs the streams of the others.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant (xorshift has an all-zero fixed point).
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state.
func (r *Rand) Seed(seed uint64) {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	r.state = seed
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// Threshold converts a probability into the integer form Below compares
// against: Float64() < p holds exactly when Uint64()>>11 < Threshold(p),
// since Float64 is k/2^53 for the integer k = Uint64()>>11 and p·2^53 is
// exact in float64. p <= 0 and NaN give 0 (never), p >= 1 gives 2^53
// (always).
func Threshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Below draws once and reports whether the draw falls under th, a value
// from Threshold. Below(Threshold(p)) consumes and decides exactly as
// Bool(p) does, without the float conversion and compare.
func (r *Rand) Below(th uint64) bool {
	return r.Uint64()>>11 < th
}

// Split derives a child generator whose stream is independent of subsequent
// draws from r. It is used to hand each workload process its own stream.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64() | 1)
}

// Zipf draws from an approximate Zipf(s≈1) distribution over [0, n),
// favouring small indices. It is used for hot-set access patterns.
func (r *Rand) Zipf(n int) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF approximation for s=1: P(X <= k) ~ ln(k+1)/ln(n+1),
	// so k = (n+1)^u - 1 for uniform u.
	k := int(math.Pow(float64(n+1), r.Float64())) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return k
}

// Geometric draws a non-negative integer with mean approximately mean,
// geometrically distributed. Used for burst lengths.
func (r *Rand) Geometric(mean float64) int {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	if u >= 1 {
		u = 0.999999
	}
	return int(-mean * math.Log(1-u))
}
