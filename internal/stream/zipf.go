package stream

import (
	"math"

	"adsketch/internal/rank"
)

// Zipf generates a heavy-tailed stream of element IDs — the workload shape
// of web/page-view streams that distinct counters face in practice.
// Element i (1-based) is drawn with probability proportional to 1/i^s over
// a universe of size n, using Chlebus's approximate inverse-CDF for the
// Zipf distribution (exact enough for workload generation).
type Zipf struct {
	n   int
	s   float64
	rng *rank.RNG
	// hInt is the normalizing integral approximation H(n).
	hn float64
}

// NewZipf returns a generator over universe [0, n) with exponent s > 0,
// s != 1 handled via the generalized harmonic integral.
//
//adsvet:ignore deadsurface ROADMAP item 2(e) draws its skewed query mix from it
func NewZipf(n int, s float64, seed uint64) *Zipf {
	if n < 1 {
		panic("stream: Zipf universe must be non-empty")
	}
	if s <= 0 {
		panic("stream: Zipf exponent must be positive")
	}
	z := &Zipf{n: n, s: s, rng: rank.NewRNG(seed)}
	z.hn = z.h(float64(n) + 0.5)
	return z
}

// h is the integral of x^-s from 0.5 to x, a continuous approximation of
// the generalized harmonic number.
func (z *Zipf) h(x float64) float64 {
	if z.s == 1 {
		return math.Log(x) - math.Log(0.5)
	}
	return (math.Pow(x, 1-z.s) - math.Pow(0.5, 1-z.s)) / (1 - z.s)
}

// hInv inverts h.
func (z *Zipf) hInv(y float64) float64 {
	if z.s == 1 {
		return 0.5 * math.Exp(y)
	}
	return math.Pow(y*(1-z.s)+math.Pow(0.5, 1-z.s), 1/(1-z.s))
}

// Next returns the next element ID in [0, n).
//
//adsvet:ignore deadsurface ROADMAP item 2(e) draws its skewed query mix from it
func (z *Zipf) Next() int64 {
	u := z.rng.Float64()
	x := z.hInv(u * z.hn)
	i := int64(math.Round(x))
	if i < 1 {
		i = 1
	}
	if i > int64(z.n) {
		i = int64(z.n)
	}
	return i - 1
}
