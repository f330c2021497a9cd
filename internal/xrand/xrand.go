// Package xrand provides a tiny, fast, deterministic pseudo-random number
// generator (xorshift64*). The simulator must be bit-for-bit reproducible
// across runs and platforms, so all stochastic components (reference
// generators, allocators) draw from per-component xrand instances with fixed
// seeds rather than from math/rand's global state.
package xrand

// RNG is a xorshift64* generator. The zero value is invalid; use New or
// Seed.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed. A zero seed is replaced with a
// fixed non-zero constant, since xorshift has an all-zero fixed point.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed restarts r in place at the stream New(seed) draws.
func (r *RNG) Seed(seed uint64) {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	r.state = seed
	// Warm up so that small seeds do not produce correlated first outputs.
	for i := 0; i < 4; i++ {
		r.Uint64()
	}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Zipf draws from a bounded discrete Zipf-like distribution over [0, n) with
// exponent s, using inverse-CDF on a precomputed table is avoided for memory;
// instead it uses rejection-free two-level sampling: with probability hot it
// returns a value in the first hotN items, uniformly; otherwise uniform over
// the rest. This is a cheap skew approximation adequate for synthetic
// workloads. See HotCold for the direct form.
func (r *RNG) HotCold(n, hotN int, hotP float64) int {
	if hotN <= 0 || hotN >= n {
		return r.Intn(n)
	}
	if r.Bool(hotP) {
		return r.Intn(hotN)
	}
	return hotN + r.Intn(n-hotN)
}
