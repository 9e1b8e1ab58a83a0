package stats

import "math"

// Reference error constants from the paper, used as the analytic overlay
// curves in Figure 2 and in assertions that measured error matches theory.

// BasicCV returns 1/sqrt(k-2), the CV of the basic k-mins estimator and the
// first-order bound for the basic bottom-k estimator (Section 4).
func BasicCV(k int) float64 {
	if k <= 2 {
		return math.Inf(1)
	}
	return 1 / math.Sqrt(float64(k-2))
}

// HIPCV returns 1/sqrt(2(k-1)), the first-order CV bound of the bottom-k
// HIP estimator (Theorem 5.1).
func HIPCV(k int) float64 {
	if k <= 1 {
		return math.Inf(1)
	}
	return 1 / math.Sqrt(2*float64(k-1))
}

// BasicMRE returns sqrt(2/(pi(k-2))), the paper's reference mean relative
// error of the basic k-mins estimator.
func BasicMRE(k int) float64 {
	if k <= 2 {
		return math.Inf(1)
	}
	return math.Sqrt(2 / (math.Pi * float64(k-2)))
}

// HIPMRE returns sqrt(1/(pi(k-1))), the paper's reference MRE for HIP.
func HIPMRE(k int) float64 {
	if k <= 1 {
		return math.Inf(1)
	}
	return math.Sqrt(1 / (math.Pi * float64(k-1)))
}

// HIPBaseBCV returns sqrt((1+b)/(4(k-1))), the Section 5.6 back-of-the-
// envelope CV of HIP with base-b ranks (b=1 recovers the full-rank bound).
func HIPBaseBCV(k int, b float64) float64 {
	if k <= 1 {
		return math.Inf(1)
	}
	return math.Sqrt((1 + b) / (4 * float64(k-1)))
}

// HLLCV returns 1.08/sqrt(k), the approximate NRMSE of bias-corrected
// HyperLogLog quoted in Section 6.
func HLLCV(k int) float64 { return 1.08 / math.Sqrt(float64(k)) }

// HIPOnHLLCV returns sqrt(3/(4k)) ~ 0.866/sqrt(k), the Section 6 NRMSE of
// the HIP estimator on the HyperLogLog (k-partition, base-2) sketch.
func HIPOnHLLCV(k int) float64 { return math.Sqrt(3 / (4 * float64(k))) }
