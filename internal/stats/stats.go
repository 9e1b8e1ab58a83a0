// Package stats provides the numerical helpers shared by the estimators'
// tests and the experiment harness: harmonic numbers (the expected-size
// formulas of Lemma 2.2), streaming moment accumulators, per-point error
// accumulators for the NRMSE / MRE curves of Figures 2 and 3, and the
// paper's reference error curves those are compared against.  No serving
// binary links it.
package stats

import "math"

// EulerGamma is the Euler–Mascheroni constant.
const EulerGamma = 0.57721566490153286060651209008240243

// Harmonic returns the n-th harmonic number H_n = sum_{i=1..n} 1/i.
// For n <= 256 the sum is computed exactly; beyond that the standard
// asymptotic expansion is used, which is accurate to well below 1e-12.
func Harmonic(n int) float64 {
	if n <= 0 {
		return 0
	}
	if n <= 256 {
		h := 0.0
		for i := n; i >= 1; i-- {
			h += 1 / float64(i)
		}
		return h
	}
	x := float64(n)
	return math.Log(x) + EulerGamma + 1/(2*x) - 1/(12*x*x) + 1/(120*x*x*x*x)
}

// ExpectedBottomKADSSize returns k + k(H_n - H_k), the expected number of
// entries in a bottom-k ADS of a node with n reachable nodes (Lemma 2.2).
// For n <= k every node is included and the size is exactly n.
func ExpectedBottomKADSSize(n, k int) float64 {
	if n <= k {
		return float64(n)
	}
	return float64(k) + float64(k)*(Harmonic(n)-Harmonic(k))
}

// ExpectedKPartitionADSSize returns k*H_{ceil(n/k)}, the Lemma 2.2 expected
// size of a k-partition ADS (approximately k(ln n - ln k) for n >> k).
func ExpectedKPartitionADSSize(n, k int) float64 {
	if n <= 0 {
		return 0
	}
	if k <= 1 {
		return Harmonic(n)
	}
	per := (n + k - 1) / k
	return float64(k) * Harmonic(per)
}

// Accum accumulates streaming mean and variance (Welford's algorithm).
type Accum struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (a *Accum) Add(x float64) {
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N reports the number of samples.
func (a *Accum) N() int64 { return a.n }

// Mean reports the sample mean (0 when empty).
func (a *Accum) Mean() float64 { return a.mean }

// Var reports the population variance (0 for fewer than 2 samples).
func (a *Accum) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n)
}

// SampleVar reports the unbiased sample variance.
func (a *Accum) SampleVar() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std reports the population standard deviation.
func (a *Accum) Std() float64 { return math.Sqrt(a.Var()) }

// CV reports the coefficient of variation std/mean (0 if the mean is 0).
func (a *Accum) CV() float64 {
	if a.mean == 0 {
		return 0
	}
	return a.Std() / math.Abs(a.mean)
}

// Merge folds another accumulator into a (parallel Welford merge).
func (a *Accum) Merge(b *Accum) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	n := a.n + b.n
	d := b.mean - a.mean
	a.m2 += b.m2 + d*d*float64(a.n)*float64(b.n)/float64(n)
	a.mean += d * float64(b.n) / float64(n)
	a.n = n
}

// ErrAccum accumulates the error of an estimator against a known truth at a
// single evaluation point.  The paper's quality measures (Section 5.5) are
//
//	NRMSE = sqrt(E[(n-n̂)^2]) / n   (equals the CV when unbiased)
//	MRE   = E[|n-n̂|] / n
type ErrAccum struct {
	truth  float64
	n      int64
	sumErr float64 // sum of (est - truth), for bias
	sumSq  float64 // sum of (est - truth)^2
	sumAbs float64 // sum of |est - truth|
}

// NewErrAccum returns an accumulator for the given truth value.
func NewErrAccum(truth float64) *ErrAccum { return &ErrAccum{truth: truth} }

// Add folds one estimate into the accumulator.
func (e *ErrAccum) Add(est float64) {
	d := est - e.truth
	e.n++
	e.sumErr += d
	e.sumSq += d * d
	e.sumAbs += math.Abs(d)
}

// N reports the number of estimates folded in.
func (e *ErrAccum) N() int64 { return e.n }

// Truth reports the ground-truth value.
func (e *ErrAccum) Truth() float64 { return e.truth }

// NRMSE reports sqrt(mean squared error)/truth.
func (e *ErrAccum) NRMSE() float64 {
	if e.n == 0 || e.truth == 0 {
		return 0
	}
	return math.Sqrt(e.sumSq/float64(e.n)) / e.truth
}

// MRE reports mean(|err|)/truth.
func (e *ErrAccum) MRE() float64 {
	if e.n == 0 || e.truth == 0 {
		return 0
	}
	return e.sumAbs / float64(e.n) / e.truth
}

// Bias reports mean(est-truth)/truth, the normalized bias.
func (e *ErrAccum) Bias() float64 {
	if e.n == 0 || e.truth == 0 {
		return 0
	}
	return e.sumErr / float64(e.n) / e.truth
}

// Merge folds another accumulator (for the same truth) into e.
func (e *ErrAccum) Merge(o *ErrAccum) {
	e.n += o.n
	e.sumErr += o.sumErr
	e.sumSq += o.sumSq
	e.sumAbs += o.sumAbs
}
