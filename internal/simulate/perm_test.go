package simulate

import (
	"math"
	"testing"

	"adsketch/internal/rank"
	"adsketch/internal/stats"
	"adsketch/lab"
)

// TestPermutationEstimatorExactPhase: while s <= k the estimate is exact.
func TestPermutationEstimatorExactPhase(t *testing.T) {
	p := NewPermutationEstimator(100, 5)
	sigmas := []int{42, 17, 99, 3, 71}
	for i, s := range sigmas {
		if !p.Offer(s) {
			t.Fatalf("offer %d rejected in exact phase", s)
		}
		if got := p.Estimate(); got != float64(i+1) {
			t.Fatalf("estimate after %d = %g, want %d", i+1, got, i+1)
		}
	}
}

// TestPermutationEstimatorUnbiased: mean over random permutations.
func TestPermutationEstimatorUnbiased(t *testing.T) {
	const n, k, runs = 1000, 10, 400
	for _, card := range []int{50, 300, 800, 1000} {
		acc := stats.NewErrAccum(float64(card))
		for run := 0; run < runs; run++ {
			rng := rank.NewRNG(uint64(run)*97 + 11)
			perm := rng.Perm(n)
			p := NewPermutationEstimator(n, k)
			for i := 0; i < card; i++ {
				p.Offer(perm[i] + 1)
			}
			acc.Add(p.Estimate())
		}
		if bias := acc.Bias(); math.Abs(bias) > 0.05 {
			t.Errorf("cardinality %d: bias %+.3f", card, bias)
		}
	}
}

// TestPermutationBeatsHIPAtHighFraction (Section 5.4/Figure 2): for
// cardinalities above ~0.2n the permutation estimator has lower error.
func TestPermutationBeatsHIPAtHighFraction(t *testing.T) {
	const n, k, runs = 2000, 10, 300
	card := int(0.8 * n)
	permAcc := stats.NewErrAccum(float64(card))
	hipAcc := stats.NewErrAccum(float64(card))
	for run := 0; run < runs; run++ {
		rng := rank.NewRNG(uint64(run)*193 + 7)
		perm := rng.Perm(n)
		p := NewPermutationEstimator(n, k)
		b := lab.NewBottomKDistinct(k, uint64(run)*193+7)
		for i := 0; i < card; i++ {
			p.Offer(perm[i] + 1)
			b.Add(int64(i))
		}
		permAcc.Add(p.Estimate())
		hipAcc.Add(b.Estimate())
	}
	if permAcc.NRMSE() >= hipAcc.NRMSE() {
		t.Errorf("at 0.8n: permutation NRMSE %g not below HIP %g",
			permAcc.NRMSE(), hipAcc.NRMSE())
	}
}

func TestPermutationEstimatorSaturation(t *testing.T) {
	p := NewPermutationEstimator(50, 3)
	// Offer ranks 1..3 -> saturated.
	for _, s := range []int{2, 1, 3} {
		p.Offer(s)
	}
	if !p.Saturated() {
		t.Fatal("sketch with ranks {1,2,3} should be saturated")
	}
	// Correction: sHat=3, estimate = 3*4/3-1 = 3.
	if got := p.Estimate(); math.Abs(got-3) > 1e-12 {
		t.Errorf("saturated estimate = %g, want 3", got)
	}
	if p.Offer(10) {
		t.Error("update accepted after saturation")
	}
}

func TestPermutationEstimatorPanics(t *testing.T) {
	check := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	check("bad n", func() { NewPermutationEstimator(0, 1) })
	check("rank out of range", func() { NewPermutationEstimator(5, 2).Offer(6) })
	check("duplicate rank", func() {
		p := NewPermutationEstimator(5, 2)
		p.Offer(3)
		p.Offer(3)
	})
}
