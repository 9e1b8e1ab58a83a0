package lab

import (
	"math"
	"testing"

	"adsketch/internal/rank"
)

func TestRankAtPermutationsIndependent(t *testing.T) {
	s := rank.NewSource(5)
	// Ranks under different permutations must differ for (almost) all nodes.
	same := 0
	for v := int64(0); v < 1000; v++ {
		if rankAt(s, 0, v) == rankAt(s, 1, v) {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d collisions across permutations 0 and 1", same)
	}
	// Correlation between permutation ranks should be near zero.
	const n = 100000
	var sxy, sx, sy float64
	for v := int64(0); v < n; v++ {
		x, y := rankAt(s, 0, v), rankAt(s, 1, v)
		sx += x
		sy += y
		sxy += x * y
	}
	cov := sxy/n - (sx/n)*(sy/n)
	if math.Abs(cov) > 0.002 {
		t.Errorf("covariance between permutations = %g, want ~0", cov)
	}
}

func TestBucketRangeAndBalance(t *testing.T) {
	s := rank.NewSource(11)
	const k = 16
	const n = 160000
	counts := make([]int, k)
	for v := int64(0); v < n; v++ {
		b := bucket(s, v, k)
		if b < 0 || b >= k {
			t.Fatalf("bucket %d out of range [0,%d)", b, k)
		}
		counts[b]++
	}
	want := float64(n) / k
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d has %d elements, want ~%g", b, c, want)
		}
	}
}

func TestBucketSingle(t *testing.T) {
	s := rank.NewSource(3)
	for v := int64(0); v < 100; v++ {
		if got := bucket(s, v, 1); got != 0 {
			t.Fatalf("Bucket(v,1) = %d, want 0", got)
		}
		if got := bucket(s, v, 0); got != 0 {
			t.Fatalf("Bucket(v,0) = %d, want 0", got)
		}
	}
}

func TestBase2ExponentMatchesFloat(t *testing.T) {
	d := rank.NewBaseB(2)
	rng := rank.NewRNG(404)
	for i := 0; i < 100000; i++ {
		h := rng.Uint64()
		r := (float64(h>>11) + 0.5) / (1 << 53) // the rank h maps to
		got := base2Exponent(h)
		want := d.Exponent(r)
		if got != want {
			t.Fatalf("base2Exponent(%#x) = %d, float path gives %d (r=%g)", h, got, want, r)
		}
	}
}

func TestBase2ExponentGeometric(t *testing.T) {
	// P(exponent >= h) = 2^-(h-1): check the empirical tail.
	rng := rank.NewRNG(17)
	const n = 1 << 20
	counts := make([]int, 24)
	for i := 0; i < n; i++ {
		h := base2Exponent(rng.Uint64())
		if h < len(counts) {
			counts[h]++
		}
	}
	for h := 1; h <= 8; h++ {
		tail := 0
		for j := h; j < len(counts); j++ {
			tail += counts[j]
		}
		want := float64(n) * math.Pow(2, -float64(h-1))
		if math.Abs(float64(tail)-want) > 6*math.Sqrt(want) {
			t.Errorf("P(exp >= %d): got %d, want ~%g", h, tail, want)
		}
	}
}
