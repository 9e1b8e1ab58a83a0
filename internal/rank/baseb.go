package rank

import "math"

// Base-b rank discretization (paper Section 2, "Base-b ranks", and Section
// 5.6).  A full-precision rank r in (0,1) is rounded to r' = b^-h where
// h = ceil(-log_b r).  The rounded rank is represented by the integer
// exponent h, which takes only log log n + O(1) bits in expectation; the
// base b trades representation size against estimator variance: the HIP
// variance grows by the factor (1+b)/2 (Section 5.6).

// BaseB describes a discretization base b > 1.
type BaseB struct {
	b    float64
	logb float64 // natural log of b, cached
}

// NewBaseB returns the discretization for base b.  It panics if b <= 1,
// since the rounding r -> b^-h is only a contraction for b > 1.
func NewBaseB(b float64) BaseB {
	if !(b > 1) {
		panic("rank: base-b discretization requires b > 1")
	}
	return BaseB{b: b, logb: math.Log(b)}
}

// Base reports b.
func (d BaseB) Base() float64 { return d.b }

// Exponent returns h = ceil(-log_b r), the integer representation of the
// rounded rank of a full rank r in (0,1).  Larger h means smaller rank.
// A small nudge keeps exact grid points b^-h stable under floating error,
// making Round idempotent.
func (d BaseB) Exponent(r float64) int {
	h := math.Ceil(-math.Log(r)/d.logb - 1e-9)
	if h < 0 {
		// Guard against r marginally above 1 from floating error.
		h = 0
	}
	return int(h)
}

// Value returns the rounded rank b^-h for exponent h.  Ranks are rounded
// *down* (Section 5.6: the discretized rank is a "rounded down" form), so
// Value(Exponent(r)) <= r always holds, with equality exactly on the grid.
func (d BaseB) Value(h int) float64 {
	return math.Pow(d.b, -float64(h))
}

// Round returns the rounded rank of r directly: Value(Exponent(r)).
func (d BaseB) Round(r float64) float64 {
	return d.Value(d.Exponent(r))
}
