package core

import (
	"fmt"

	"adsketch/internal/sketch"
)

// KMinsADS is a k-mins All-Distances Sketch: k independent bottom-1 ADSs,
// one per permutation (Section 2).  Each per-permutation list holds the
// prefix minima of that permutation's ranks along the canonical node order,
// so the minimum rank within any neighborhood N_d is the rank of the last
// entry with Dist <= d.  Each list is a column view (frame segment or
// private columns).
type KMinsADS struct {
	k     int
	node  int32
	perms []cols // perms[h]: bottom-1 ADS under permutation h
}

var _ Sketch = (*KMinsADS)(nil)

// NewKMinsADS returns an empty k-mins ADS owned by node.
func NewKMinsADS(node int32, k int) *KMinsADS {
	if k < 1 {
		panic("core: k must be >= 1")
	}
	return &KMinsADS{k: k, node: node, perms: make([]cols, k)}
}

// K returns the sketch parameter.
func (a *KMinsADS) K() int { return a.k }

// Flavor returns sketch.KMins.
func (a *KMinsADS) Flavor() sketch.Flavor { return sketch.KMins }

// Node returns the owner.
func (a *KMinsADS) Node() int32 { return a.node }

// Size returns the total number of stored entries across permutations
// (the k-mins ADS size Lemma 2.2 bounds by k·H_n).
func (a *KMinsADS) Size() int {
	n := 0
	for _, p := range a.perms {
		n += p.len()
	}
	return n
}

// Perm materializes the bottom-1 ADS of permutation h in canonical order
// (a fresh copy; the storage is columnar).
func (a *KMinsADS) Perm(h int) []Entry { return a.perms[h].entries() }

// OfferAt presents a candidate to permutation h's bottom-1 ADS; the
// candidate must come after all current entries of that permutation in
// canonical order.  It reports whether the entry was inserted (its rank
// strictly improved the running minimum).
func (a *KMinsADS) OfferAt(h int, e Entry) bool {
	p := &a.perms[h]
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

// MinsWithin extracts the k-mins MinHash sketch of N_d: for each
// permutation, the minimum rank among entries with Dist <= d (1 when the
// neighborhood holds no entry of that permutation).
func (a *KMinsADS) MinsWithin(d float64) []float64 {
	mins := make([]float64, a.k)
	for h, p := range a.perms {
		mins[h] = 1
		// Prefix minima are decreasing: the last entry within d holds it.
		if m := p.sizeWithin(d); m > 0 {
			mins[h] = p.rankAt(m - 1)
		}
	}
	return mins
}

// EstimateNeighborhood returns the basic k-mins estimate of n_d
// (Section 4.1) applied to the extracted MinHash sketch.
func (a *KMinsADS) EstimateNeighborhood(d float64) float64 {
	return sketch.KMinsEstimate(a.MinsWithin(d))
}

// HIPEntries computes adjusted weights by equation (7): scanning distinct
// nodes in canonical order while maintaining the running minimum rank m_h
// of each permutation over the nodes seen so far,
//
//	τ_vj = 1 - Π_h (1 - m_h),
//
// the probability that a fresh node beats at least one permutation's
// minimum.  A node appearing in several permutations' lists contributes a
// single entry, in canonical order.
func (a *KMinsADS) HIPEntries() []WeightedEntry {
	var out []WeightedEntry
	perms := unpacked(a.perms)
	cursors := make([]int, len(perms))
	curMin := make([]float64, len(perms))
	for h := range curMin {
		curMin[h] = 1
	}
	for {
		// Find the next entry in canonical order across permutations.
		best := -1
		for h, c := range cursors {
			if c >= perms[h].len() {
				continue
			}
			if best < 0 || perms[h].before(c, &perms[best], cursors[best]) {
				best = h
			}
		}
		if best < 0 {
			break
		}
		node, dist := perms[best].nodeAt(cursors[best]), perms[best].distAt(cursors[best])
		// HIP probability before updating the minima with the entry itself.
		prod := 1.0
		for _, m := range curMin {
			prod *= 1 - m
		}
		tau := 1 - prod
		out = append(out, WeightedEntry{Node: node, Dist: dist, Weight: 1 / tau})
		// Consume the entry from every permutation where it appears (same
		// node can be the new minimum of several permutations at once).
		for h := range cursors {
			c := cursors[h]
			if c < perms[h].len() && perms[h].nodeAt(c) == node && perms[h].distAt(c) == dist {
				curMin[h] = perms[h].rankAt(c)
				cursors[h]++
			}
		}
	}
	return out
}

// Validate checks per-permutation canonical order and the bottom-1
// inclusion condition (strictly decreasing ranks).
func (a *KMinsADS) Validate() error {
	for h, p := range a.perms {
		for i := 1; i < p.len(); i++ {
			if !p.before(i-1, &p, i) {
				return fmt.Errorf("core: k-mins ADS(%d) perm %d out of order at %d", a.node, h, i)
			}
			if p.rankAt(i) >= p.rankAt(i-1) {
				return fmt.Errorf("core: k-mins ADS(%d) perm %d rank not decreasing at %d", a.node, h, i)
			}
		}
		if p.len() > 0 && (p.nodeAt(0) != a.node || p.distAt(0) != 0) {
			return fmt.Errorf("core: k-mins ADS(%d) perm %d does not start with owner", a.node, h)
		}
	}
	return nil
}
