package sketch

import (
	"math"
	"testing"
)

func TestFlavorString(t *testing.T) {
	if BottomK.String() != "bottom-k" || KMins.String() != "k-mins" || KPartition.String() != "k-partition" {
		t.Error("flavor names wrong")
	}
	if Flavor(9).String() != "Flavor(9)" {
		t.Error("unknown flavor formatting")
	}
}

func TestKMinsEstimateFunctionEdgeCases(t *testing.T) {
	if got := KMinsEstimate([]float64{0, 0, 0}); got != 0 {
		t.Errorf("all-zero mins estimate = %g, want 0", got)
	}
	// k=1 MLE path.
	got := KMinsEstimate([]float64{1 - math.Exp(-0.25)})
	if math.Abs(got-4) > 1e-9 {
		t.Errorf("k=1 estimate = %g, want 4", got)
	}
}

func TestBottomKEstimateFunction(t *testing.T) {
	if !math.IsInf(BottomKEstimate(4, 0), 1) {
		t.Error("tau=0 should give +Inf")
	}
	if got := BottomKEstimate(5, 0.5); got != 8 {
		t.Errorf("BottomKEstimate(5,0.5) = %g, want 8", got)
	}
}

func TestKPartitionEstimateFunction(t *testing.T) {
	if got := KPartitionEstimate([]float64{1, 1, 1}); got != 0 {
		t.Error("all-empty should estimate 0")
	}
	if got := KPartitionEstimate([]float64{0.3, 1, 1}); got != 0 {
		t.Error("single bucket should estimate 0 (paper: k'=1 gives 0)")
	}
}
