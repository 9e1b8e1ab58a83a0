package core

import "fmt"

// StreamBuilder constructs a bottom-k ADS from elements presented in
// canonical order (increasing distance / arrival time), the setting of
// Section 3.1 case (i) and of the simulations in Section 5.5: "the ADS
// only depends on the ranks assigned to these nodes" once the order is
// fixed, so a stream of distinct elements is equivalent to a graph
// neighborhood scan.
//
// Alongside the ADS it maintains the running HIP cardinality estimate (the
// sum of adjusted weights of accepted entries) and exposes the basic
// bottom-k estimate, so a single pass yields estimates at every prefix
// cardinality.  Both match what the finished ADS would report at the
// corresponding distance.
type StreamBuilder struct {
	ads      *ADS
	smallest *kSmallest
	hipCount float64
	seen     int64
}

// NewStreamBuilder returns a builder for a bottom-k ADS owned by node.
func NewStreamBuilder(node int32, k int) *StreamBuilder {
	return &StreamBuilder{ads: NewADS(node, k), smallest: newKSmallest(k)}
}

// K returns the sketch parameter.
func (b *StreamBuilder) K() int { return b.ads.k }

// Seen returns the number of elements offered so far.
func (b *StreamBuilder) Seen() int64 { return b.seen }

// Offer presents the next element in canonical order with its rank and
// reports whether the sketch was modified.  dist must be non-decreasing
// across calls (equal distances are ordered by offer sequence, which is
// the canonical tie-break).
func (b *StreamBuilder) Offer(node int32, dist, r float64) bool {
	b.seen++
	tau := 1.0
	if b.smallest.size() >= b.ads.k {
		tau = b.smallest.max()
	}
	if r >= tau {
		return false
	}
	// HIP probability of this acceptance is exactly the pre-acceptance
	// threshold (Lemma 5.1), so the adjusted weight is 1/tau.
	b.hipCount += 1 / tau
	b.ads.c.push(Entry{Node: node, Dist: dist, Rank: r})
	b.smallest.offer(r)
	return true
}

// HIPEstimate returns the current HIP estimate of the number of distinct
// elements offered so far (Section 5 / Section 6 applied to the stream).
func (b *StreamBuilder) HIPEstimate() float64 { return b.hipCount }

// BasicEstimate returns the basic bottom-k estimate at the current prefix:
// exact while fewer than k elements were accepted, (k-1)/τ_k afterwards.
func (b *StreamBuilder) BasicEstimate() float64 {
	if b.smallest.size() < b.ads.k {
		return float64(b.smallest.size())
	}
	return float64(b.ads.k-1) / b.smallest.max()
}

// ADS returns the sketch built so far.  The builder retains ownership; the
// caller must not offer more elements after mutating the result.
func (b *StreamBuilder) ADS() *ADS { return b.ads }

// SizeEstimate returns the Section 8 size-only estimate for the current
// number of sketch entries.
func (b *StreamBuilder) SizeEstimate() float64 {
	return SizeEstimate(b.ads.k, b.ads.Size())
}

// SizeEstimate is the unique unbiased cardinality estimator based solely on
// the number s of entries in a bottom-k ADS prefix (Lemma 8.1):
//
//	E_s = s                        for s < k
//	E_s = k(1+1/k)^(s-k+1) - 1     for s >= k.
//
// For k = 1 this gives 2^s - 1.
func SizeEstimate(k, s int) float64 {
	if k < 1 {
		panic(fmt.Sprintf("core: SizeEstimate with k=%d", k))
	}
	if s < k {
		return float64(s)
	}
	e := float64(k)
	base := 1 + 1/float64(k)
	for i := 0; i < s-k+1; i++ {
		e *= base
	}
	return e - 1
}
