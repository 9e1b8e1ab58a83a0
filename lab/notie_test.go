package lab

import (
	"math"
	"testing"

	"adsketch/internal/rank"
	"adsketch/internal/stats"
)

// TestNoTieADSUnbiased: the Appendix A estimator is unbiased on grouped
// distances.
func TestNoTieADSUnbiased(t *testing.T) {
	// 10 groups of 40 nodes each, same distance within a group.
	const k, runs = 6, 600
	const groups, per = 10, 40
	n := groups * per
	acc := stats.NewErrAccum(float64(n))
	var sizeSum float64
	for run := 0; run < runs; run++ {
		src := rank.NewSource(uint64(run)*52391 + 3)
		a := NewNoTieADS(0, k)
		id := int32(0)
		for gi := 0; gi < groups; gi++ {
			nodes := make([]int32, per)
			for j := range nodes {
				nodes[j] = id
				id++
			}
			a.OfferGroup(float64(gi), nodes, func(v int32) float64 { return src.Rank(int64(v)) })
		}
		acc.Add(a.EstimateNeighborhood(float64(groups)))
		sizeSum += float64(a.Size())
	}
	if bias := acc.Bias(); math.Abs(bias) > 0.05 {
		t.Errorf("no-tie estimator bias = %+.3f", bias)
	}
	// Size advantage: at most k entries per distinct distance.
	if sizeSum/runs > float64(groups*k) {
		t.Errorf("mean no-tie size %g exceeds k per group", sizeSum/runs)
	}
	// CV within the Appendix A bound 1/sqrt(k-2) (loosely checked).
	if acc.NRMSE() > 1.4*stats.BasicCV(k) {
		t.Errorf("no-tie NRMSE = %g above bound %g", acc.NRMSE(), stats.BasicCV(k))
	}
}

func TestNoTieADSOrderPanics(t *testing.T) {
	a := NewNoTieADS(0, 2)
	a.OfferGroup(1, []int32{0, 1}, func(v int32) float64 { return float64(v+1) / 10 })
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing group distance did not panic")
		}
	}()
	a.OfferGroup(1, []int32{2}, func(v int32) float64 { return 0.5 })
}
