package rank

import (
	"math"
	"testing"
	"testing/quick"
)

// TestRankIsHash64 pins Rank, which reads its seed's mix from the Source,
// to the definition it caches: unitFloat(Hash64(seed, v)).
func TestRankIsHash64(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63, math.MaxUint64} {
		src := NewSource(seed)
		for v := int64(-3); v < 1000; v++ {
			if got, want := src.Rank(v), unitFloat(Hash64(seed, uint64(v))); got != want {
				t.Fatalf("seed %d: Rank(%d) = %v, want %v", seed, v, got, want)
			}
		}
	}
}

func TestRankDeterministic(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for v := int64(0); v < 1000; v++ {
		if a.Rank(v) != b.Rank(v) {
			t.Fatalf("rank of %d differs between identically seeded sources", v)
		}
	}
}

func TestRankOpenInterval(t *testing.T) {
	s := NewSource(7)
	for v := int64(0); v < 100000; v++ {
		r := s.Rank(v)
		if r <= 0 || r >= 1 {
			t.Fatalf("rank %g of node %d outside open interval (0,1)", r, v)
		}
	}
}

func TestRankSeedIndependence(t *testing.T) {
	a := NewSource(1)
	b := NewSource(2)
	same := 0
	for v := int64(0); v < 1000; v++ {
		if a.Rank(v) == b.Rank(v) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical ranks across different seeds", same)
	}
}

func TestRankUniformMoments(t *testing.T) {
	s := NewSource(99)
	const n = 200000
	var sum, sumsq float64
	for v := int64(0); v < n; v++ {
		r := s.Rank(v)
		sum += r
		sumsq += r * r
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean of uniform ranks = %g, want ~0.5", mean)
	}
	second := sumsq / n
	if math.Abs(second-1.0/3.0) > 0.005 {
		t.Errorf("second moment = %g, want ~1/3", second)
	}
}

func TestExpRankDistribution(t *testing.T) {
	s := NewSource(21)
	const n = 200000
	var sum float64
	for v := int64(0); v < n; v++ {
		sum += s.ExpRank(v, 1)
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("mean of Exp(1) ranks = %g, want ~1", mean)
	}
}

func TestExpRankWeightScaling(t *testing.T) {
	s := NewSource(22)
	const n = 100000
	var sum float64
	for v := int64(0); v < n; v++ {
		sum += s.ExpRank(v, 4)
	}
	mean := sum / n
	if math.Abs(mean-0.25) > 0.01 {
		t.Errorf("mean of Exp(4) ranks = %g, want ~0.25", mean)
	}
}

func TestExpRankMonotoneInRank(t *testing.T) {
	// ExpRank must be a monotone transform of Rank: it preserves the
	// permutation order, which is what makes MinHash definitions carry over.
	s := NewSource(23)
	for v := int64(0); v < 1000; v++ {
		for u := int64(0); u < 20; u++ {
			ru, rv := s.Rank(u), s.Rank(v)
			eu, ev := s.ExpRank(u, 1), s.ExpRank(v, 1)
			if (ru < rv) != (eu < ev) && ru != rv {
				t.Fatalf("ExpRank broke order for nodes %d,%d", u, v)
			}
		}
	}
}

func TestPriorityRank(t *testing.T) {
	s := NewSource(31)
	for v := int64(0); v < 100; v++ {
		if got, want := s.PriorityRank(v, 2), s.Rank(v)/2; got != want {
			t.Fatalf("PriorityRank = %g, want %g", got, want)
		}
	}
}

func TestHash64Avalanche(t *testing.T) {
	// Flipping one input bit should flip ~32 output bits on average.
	var totalFlips, trials int
	for key := uint64(1); key < 2000; key += 7 {
		h := Hash64(0, key)
		for bit := uint(0); bit < 64; bit += 13 {
			h2 := Hash64(0, key^(1<<bit))
			totalFlips += popcount(h ^ h2)
			trials++
		}
	}
	avg := float64(totalFlips) / float64(trials)
	if avg < 28 || avg > 36 {
		t.Errorf("avalanche average = %g bits, want ~32", avg)
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestBaseBExponentRoundTrip(t *testing.T) {
	d := NewBaseB(2)
	cases := []struct {
		r    float64
		want int
	}{
		{0.5, 1}, {0.25, 2}, {0.2, 3}, {0.9, 1}, {0.06, 5}, {0.0625, 4},
	}
	for _, c := range cases {
		if got := d.Exponent(c.r); got != c.want {
			t.Errorf("Exponent(%g) = %d, want %d", c.r, got, c.want)
		}
	}
}

func TestBaseBRoundIsRoundedDown(t *testing.T) {
	// Rounded rank must be <= the full rank (Section 5.6: the discretized
	// rank is a "rounded down" form), and within a factor b of it.
	if err := quick.Check(func(u uint64) bool {
		r := unitFloat(u)
		for _, b := range []float64{2, math.Sqrt2, 1.1} {
			d := NewBaseB(b)
			rr := d.Round(r)
			if rr > r*(1+1e-9) || rr*b < r*(1-1e-9) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestBaseBRoundIdempotent(t *testing.T) {
	d := NewBaseB(math.Sqrt2)
	if err := quick.Check(func(u uint64) bool {
		r := unitFloat(u)
		once := d.Round(r)
		twice := d.Round(once)
		return math.Abs(once-twice) <= 1e-12*once
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestBaseBMonotone(t *testing.T) {
	d := NewBaseB(2)
	if err := quick.Check(func(a, b uint64) bool {
		ra, rb := unitFloat(a), unitFloat(b)
		if ra > rb {
			ra, rb = rb, ra
		}
		// Smaller rank gets the larger (or equal) exponent.
		return d.Exponent(ra) >= d.Exponent(rb)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestBaseBPanicsOnBadBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBaseB(1) did not panic")
		}
	}()
	NewBaseB(1)
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(9), NewRNG(9)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("identically seeded RNGs diverged")
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		n := 1 + i%17
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(0).Intn(0)
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(77)
	for _, n := range []int{0, 1, 2, 10, 1000} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) is not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestRNGPermUniformFirstElement(t *testing.T) {
	r := NewRNG(123)
	const n, trials = 5, 50000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(trials) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("P(perm[0]=%d): got %d, want ~%g", v, c, want)
		}
	}
}
