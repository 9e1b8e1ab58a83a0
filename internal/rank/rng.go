package rank

import "math/bits"

// RNG is a small deterministic pseudo-random generator (splitmix64 stream)
// used by graph generators, the permutation estimator, and the experiment
// harness.  It is independent of math/rand so that experiment outputs are
// stable across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: mix64(seed)} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix64(r.state)
}

// Float64 returns a uniform value in the open interval (0,1).
func (r *RNG) Float64() float64 { return unitFloat(r.Uint64()) }

// Intn returns a uniform value in [0,n).  It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rank: Intn with non-positive n")
	}
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// Int63 returns a uniform non-negative int64.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Perm returns a random permutation of [0,n) by Fisher-Yates shuffle.
// The permutation estimator of Section 5.4 assigns these values as ranks.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
