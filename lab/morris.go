package lab

import (
	"fmt"
	"math"

	"adsketch/internal/rank"
)

// Approximate (non-distinct) counters in the
// style of Morris (1977) and Flajolet (1985), extended per Section 7 of
// the paper with arbitrary positive weighted increments and counter
// merging via inverse-probability estimation.
//
// A Morris counter represents n ≈ b^x - 1 using only the small integer x
// (O(log log n) bits).  The base b > 1 trades representation size for
// accuracy: the CV of unit-increment counting is ~ sqrt((b-1)/2), so
// b = 1 + 1/2^j gives relative error ~ 1/2^(j/2 + 1/2) with j extra bits.
// The paper uses these counters as the auxiliary HIP register of the
// distinct counters of Section 6, where updates are weighted (adjusted
// weights) rather than unit increments.

// Morris is an approximate counter with base b.  The zero value is not
// usable; construct with NewMorris.
type Morris struct {
	b   float64
	x   int
	rng *rank.RNG
}

// NewMorris returns a zeroed Morris counter with base b > 1 whose
// probabilistic rounding is driven by the given seed.
func NewMorris(b float64, seed uint64) *Morris {
	if !(b > 1) {
		panic(fmt.Sprintf("counter: base %g must be > 1", b))
	}
	return &Morris{b: b, rng: rank.NewRNG(seed)}
}

// Base returns the counter base.
func (m *Morris) Base() float64 { return m.b }

// X returns the stored exponent (the value that would actually be kept in
// a compact register).
func (m *Morris) X() int { return m.x }

// Estimate returns the unbiased estimate b^x - 1 of the accumulated total.
func (m *Morris) Estimate() float64 {
	return math.Pow(m.b, float64(m.x)) - 1
}

// Increment adds 1 (the classic Morris update): the exponent grows by one
// with probability 1/(b^x (b-1)), the inverse of the estimate increase.
func (m *Morris) Increment() { m.Add(1) }

// Add adds an arbitrary positive amount Y (Section 7): first the exponent
// grows by the largest i whose estimate increase b^x(b^i - 1) is at most
// Y; the leftover Δ is then added stochastically, growing the exponent
// once more with probability Δ / (b^x (b-1)).  The expectation of the
// estimate increase equals Y exactly, so the counter stays unbiased under
// any mix of weighted updates.
func (m *Morris) Add(y float64) {
	if y < 0 {
		panic(fmt.Sprintf("counter: negative increment %g", y))
	}
	if y == 0 {
		return
	}
	bx := math.Pow(m.b, float64(m.x))
	i := int(math.Floor(math.Log(y/bx+1) / math.Log(m.b)))
	// Guard against floating error pushing the deterministic step past y.
	for i > 0 && bx*(math.Pow(m.b, float64(i))-1) > y {
		i--
	}
	if i > 0 {
		m.x += i
		delta := y - bx*(math.Pow(m.b, float64(i))-1)
		if delta < 0 {
			delta = 0
		}
		bx = math.Pow(m.b, float64(m.x))
		y = delta
	}
	// Stochastic rounding of the leftover.
	p := y / (bx * (m.b - 1))
	if p > 0 && m.rng.Float64() < p {
		m.x++
	}
}

// Merge folds another counter into m: per Section 7, merging is the same
// as adding the other counter's estimate.
func (m *Morris) Merge(o *Morris) {
	if o.b != m.b {
		panic("counter: merging counters with different bases")
	}
	m.Add(o.Estimate())
}

// Bits returns the number of bits needed to store the current exponent,
// the counter's actual storage cost.
func (m *Morris) Bits() int {
	if m.x == 0 {
		return 1
	}
	return int(math.Floor(math.Log2(float64(m.x)))) + 1
}
