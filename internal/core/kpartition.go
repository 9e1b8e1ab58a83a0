package core

import (
	"fmt"

	"adsketch/internal/sketch"
)

// KPartitionADS is a k-partition All-Distances Sketch (Section 2, implicit
// in HyperANF): nodes are hashed into k buckets, and for each bucket the
// sketch keeps the prefix minima of ranks along the canonical order,
// restricted to nodes of that bucket.  A node belongs to exactly one
// bucket.  Each bucket is a column view (frame segment or private
// columns).
type KPartitionADS struct {
	k       int
	node    int32
	buckets []cols // buckets[b]: bottom-1 ADS over nodes with BUCKET=b
}

var _ Sketch = (*KPartitionADS)(nil)

// NewKPartitionADS returns an empty k-partition ADS owned by node.
func NewKPartitionADS(node int32, k int) *KPartitionADS {
	if k < 1 {
		panic("core: k must be >= 1")
	}
	return &KPartitionADS{k: k, node: node, buckets: make([]cols, k)}
}

// K returns the number of buckets.
func (a *KPartitionADS) K() int { return a.k }

// Flavor returns sketch.KPartition.
func (a *KPartitionADS) Flavor() sketch.Flavor { return sketch.KPartition }

// Node returns the owner.
func (a *KPartitionADS) Node() int32 { return a.node }

// Size returns the total number of entries across buckets.
func (a *KPartitionADS) Size() int {
	n := 0
	for _, b := range a.buckets {
		n += b.len()
	}
	return n
}

// Bucket materializes bucket b's entries in canonical order (a fresh
// copy; the storage is columnar).
func (a *KPartitionADS) Bucket(b int) []Entry { return a.buckets[b].entries() }

// OfferAt presents a candidate belonging to bucket b; the candidate must
// come after all current entries of that bucket in canonical order.  It
// reports whether the entry was inserted.
func (a *KPartitionADS) OfferAt(b int, e Entry) bool {
	p := &a.buckets[b]
	if n := p.len(); n > 0 {
		if !p.at(n - 1).before(e) {
			panic(fmt.Sprintf("core: OfferAt out of order: %+v after %+v", e, p.at(n-1)))
		}
		if e.Rank >= p.rankAt(n-1) {
			return false
		}
	}
	p.push(e)
	return true
}

// MinsWithin extracts the k-partition MinHash sketch of N_d: the minimum
// rank per bucket among entries with Dist <= d (1 for empty buckets).
func (a *KPartitionADS) MinsWithin(d float64) []float64 {
	mins := make([]float64, a.k)
	for b, p := range a.buckets {
		mins[b] = 1
		if m := p.sizeWithin(d); m > 0 {
			mins[b] = p.rankAt(m - 1)
		}
	}
	return mins
}

// EstimateNeighborhood returns the basic k-partition estimate of n_d
// (Section 4.3) applied to the extracted MinHash sketch.
func (a *KPartitionADS) EstimateNeighborhood(d float64) float64 {
	return sketch.KPartitionEstimate(a.MinsWithin(d))
}

// HIPEntries computes adjusted weights by equation (8): scanning nodes in
// canonical order while maintaining the running minimum rank m_b of each
// bucket over nodes seen so far,
//
//	τ_vj = (1/k) Σ_b m_b,
//
// the inclusion probability of a fresh node under a uniform random bucket
// assignment and rank (empty buckets contribute m_b = 1).
func (a *KPartitionADS) HIPEntries() []WeightedEntry {
	var out []WeightedEntry
	buckets := unpacked(a.buckets)
	k := len(buckets)
	cursors := make([]int, k)
	curMin := make([]float64, k)
	sum := 0.0
	for b := range curMin {
		curMin[b] = 1
		sum += 1
	}
	for {
		best := -1
		for b, c := range cursors {
			if c >= buckets[b].len() {
				continue
			}
			if best < 0 || buckets[b].before(c, &buckets[best], cursors[best]) {
				best = b
			}
		}
		if best < 0 {
			break
		}
		e := buckets[best].at(cursors[best])
		tau := sum / float64(k)
		out = append(out, WeightedEntry{Node: e.Node, Dist: e.Dist, Weight: 1 / tau})
		sum += e.Rank - curMin[best]
		curMin[best] = e.Rank
		cursors[best]++
	}
	return out
}

// Validate checks per-bucket canonical order and the bottom-1 inclusion
// condition.
func (a *KPartitionADS) Validate() error {
	for b, p := range a.buckets {
		for i := 1; i < p.len(); i++ {
			if !p.before(i-1, &p, i) {
				return fmt.Errorf("core: k-partition ADS(%d) bucket %d out of order at %d", a.node, b, i)
			}
			if p.rankAt(i) >= p.rankAt(i-1) {
				return fmt.Errorf("core: k-partition ADS(%d) bucket %d rank not decreasing at %d", a.node, b, i)
			}
		}
	}
	return nil
}
