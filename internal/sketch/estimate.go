package sketch

import "math"

// Basic cardinality estimators of Section 4 as standalone functions over
// rank values, so they can be applied both to MinHash sketches and to the
// per-distance MinHash views extracted from an All-Distances Sketch.

// KMinsEstimate returns the Section 4.1 estimator (k-1)/sum(-ln(1-x_i))
// over the k per-permutation minimum ranks (1 for an empty permutation).
// Unbiased for k > 1; CV = 1/sqrt(k-2) for k > 2.
func KMinsEstimate(mins []float64) float64 {
	k := len(mins)
	sum := 0.0
	for _, x := range mins {
		sum += -math.Log1p(-x)
	}
	if sum == 0 {
		return 0
	}
	if k == 1 {
		// MLE; biased, provided for completeness.
		return 1 / sum
	}
	return float64(k-1) / sum
}

// BottomKEstimate returns the Section 4.2 estimator given the number of
// elements seen (or stored, if that is all that is known) and the k-th
// smallest rank tau.  When fewer than k elements exist the count itself is
// exact and should be returned by the caller; this function implements the
// saturated case (k-1)/tau.
func BottomKEstimate(k int, tau float64) float64 {
	if tau <= 0 {
		return math.Inf(1)
	}
	return float64(k-1) / tau
}

// KPartitionEstimate returns the Section 4.3 estimator over per-bucket
// minimum ranks (1 for empty buckets): with k' nonempty buckets,
// k'(k'-1)/sum_{nonempty}(-ln(1-x_t)).  Zero when k' <= 1.
func KPartitionEstimate(mins []float64) float64 {
	kPrime := 0
	sum := 0.0
	for _, x := range mins {
		if x < 1 {
			kPrime++
			sum += -math.Log1p(-x)
		}
	}
	if kPrime <= 1 || sum == 0 {
		return 0
	}
	return float64(kPrime) * float64(kPrime-1) / sum
}
