package lab

import (
	"fmt"
	"sort"

	"adsketch/internal/rank"
	"adsketch/internal/sketch"
)

// HIP distinct counters over the three MinHash sketch flavors (Section 6).
// Each maintains only the MinHash sketch plus one running count; when an
// element modifies the sketch, the count grows by the inverse of the
// modification probability given the pre-update sketch state.  All are
// unbiased, and re-occurrences of an element never change sketch or count.
// Each also reads its sketch with the flavor's basic estimator of
// Section 4 (BasicEstimate), the baseline HIP is measured against.

// DistinctCounter is the interface shared by the streaming distinct
// counters of this package.
type DistinctCounter interface {
	// Add folds an element in, reporting whether the sketch changed.
	Add(id int64) bool
	// Estimate returns the current distinct-count estimate.
	Estimate() float64
}

// BottomKDistinct is the bottom-k HIP distinct counter: a bottom-k MinHash
// sketch plus the HIP register.  Memory is O(k); FirstOccurrenceADS is
// this counter plus the log of the entries that modified it.
type BottomKDistinct struct {
	k     int
	src   rank.Source
	ranks []float64 // k smallest ranks, ascending
	count float64
}

var _ DistinctCounter = (*BottomKDistinct)(nil)

// NewBottomKDistinct returns an empty counter whose ranks derive from
// seed: exact up to k, NRMSE ~1/sqrt(2(k-1)) above.
func NewBottomKDistinct(k int, seed uint64) *BottomKDistinct {
	if k < 1 {
		panic(fmt.Sprintf("stream: k = %d, need >= 1", k))
	}
	src := rank.NewSource(seed)
	return &BottomKDistinct{k: k, src: src}
}

// Add implements DistinctCounter.
func (c *BottomKDistinct) Add(id int64) bool {
	r := c.src.Rank(id)
	tau := c.threshold()
	if r >= tau {
		return false
	}
	i := sort.SearchFloat64s(c.ranks, r)
	if i < len(c.ranks) && c.ranks[i] == r {
		return false // re-occurrence
	}
	c.count += 1 / tau
	c.ranks = keepSmallest(c.ranks, r, c.k)
	return true
}

// threshold returns τ_k, the k-th smallest rank, or 1 while fewer than k
// elements were seen: a fresh element modifies the sketch exactly when its
// rank is below it.
func (c *BottomKDistinct) threshold() float64 { return kthOrOne(c.ranks, c.k) }

// keepSmallest inserts r into the ascending ranks and keeps the k
// smallest: the rank pool of a bottom-k sketch.
func keepSmallest(ranks []float64, r float64, k int) []float64 {
	i := sort.SearchFloat64s(ranks, r)
	ranks = append(ranks, 0)
	copy(ranks[i+1:], ranks[i:])
	ranks[i] = r
	if len(ranks) > k {
		ranks = ranks[:k]
	}
	return ranks
}

// kthOrOne returns the k-th smallest of the ascending ranks, or 1 while
// fewer than k are held.
func kthOrOne(ranks []float64, k int) float64 {
	if len(ranks) < k {
		return 1
	}
	return ranks[k-1]
}

// Estimate implements DistinctCounter.
func (c *BottomKDistinct) Estimate() float64 { return c.count }

// BasicEstimate returns the Section 4.2 estimate over the sketch: the
// exact count while fewer than k elements were seen, else (k-1)/τ_k.
func (c *BottomKDistinct) BasicEstimate() float64 {
	if len(c.ranks) < c.k {
		return float64(len(c.ranks))
	}
	return sketch.BottomKEstimate(c.k, c.ranks[c.k-1])
}

// KMinsDistinct is the k-mins HIP distinct counter: k independent minimum
// ranks plus the HIP register.  The update probability of a fresh element
// is 1 - Π_h (1 - min_h) (equation (7) with the whole prefix as Φ).
type KMinsDistinct struct {
	k     int
	src   rank.Source
	mins  []float64
	count float64
}

var _ DistinctCounter = (*KMinsDistinct)(nil)

// NewKMinsDistinct returns an empty counter whose ranks derive from seed.
func NewKMinsDistinct(k int, seed uint64) *KMinsDistinct {
	if k < 1 {
		panic(fmt.Sprintf("stream: k = %d, need >= 1", k))
	}
	src := rank.NewSource(seed)
	mins := make([]float64, k)
	for i := range mins {
		mins[i] = 1
	}
	return &KMinsDistinct{k: k, src: src, mins: mins}
}

// Add implements DistinctCounter.
func (c *KMinsDistinct) Add(id int64) bool {
	updated := false
	prod := 1.0
	for _, m := range c.mins {
		prod *= 1 - m
	}
	tau := 1 - prod
	for h := 0; h < c.k; h++ {
		if r := rankAt(c.src, h, id); r < c.mins[h] {
			c.mins[h] = r
			updated = true
		}
	}
	if updated {
		c.count += 1 / tau
	}
	return updated
}

// Estimate implements DistinctCounter.
func (c *KMinsDistinct) Estimate() float64 { return c.count }

// BasicEstimate returns the Section 4.1 estimate over the k minima.
func (c *KMinsDistinct) BasicEstimate() float64 { return sketch.KMinsEstimate(c.mins) }

// KPartitionDistinct is the k-partition HIP distinct counter with
// full-precision ranks; HIPDistinct is the base-2 register variant
// (HyperLogLog layout).  The update probability of a fresh element is
// (1/k) Σ_b min_b (equation (8)).
type KPartitionDistinct struct {
	k     int
	src   rank.Source
	mins  []float64
	sum   float64
	count float64
}

var _ DistinctCounter = (*KPartitionDistinct)(nil)

// NewKPartitionDistinct returns an empty counter whose ranks derive from
// seed.
func NewKPartitionDistinct(k int, seed uint64) *KPartitionDistinct {
	if k < 1 {
		panic(fmt.Sprintf("stream: k = %d, need >= 1", k))
	}
	src := rank.NewSource(seed)
	mins := make([]float64, k)
	for i := range mins {
		mins[i] = 1
	}
	return &KPartitionDistinct{k: k, src: src, mins: mins, sum: float64(k)}
}

// Add implements DistinctCounter.
func (c *KPartitionDistinct) Add(id int64) bool {
	b := bucket(c.src, id, c.k)
	r := c.src.Rank(id)
	if r >= c.mins[b] {
		return false
	}
	tau := c.sum / float64(c.k)
	c.count += 1 / tau
	c.sum += r - c.mins[b]
	c.mins[b] = r
	return true
}

// Estimate implements DistinctCounter.
func (c *KPartitionDistinct) Estimate() float64 { return c.count }

// BasicEstimate returns the Section 4.3 estimate over the bucket minima,
// biased down while many buckets are empty.
func (c *KPartitionDistinct) BasicEstimate() float64 { return sketch.KPartitionEstimate(c.mins) }
