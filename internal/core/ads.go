// Package core implements bottom-k All-Distances Sketches (ADS) — the
// paper's primary contribution, in the flavor of Section 2 that the
// serving system keeps (lab reproduces k-mins and k-partition) — one
// exact construction of Section 3 (PrunedDijkstra, Algorithm 1) and the
// (1+ε)-approximate one over Algorithm 2's rounds — and the estimators
// built on them: the basic
// MinHash-extraction estimator of Section 4, the Historic Inverse
// Probability (HIP) estimators of Section 5 with full-precision or base-b
// ranks, and the non-uniform node-weight extension of Section 9.
//
// # Canonical node order
//
// The paper defines the ADS with respect to unique distances, achieved by
// tie-breaking (Section 2, Appendix B.3).  This package uses the total
// order (distance, node ID): node u precedes node w with respect to source
// v when d_vu < d_vw, or d_vu = d_vw and u < w.  The tie-break is
// independent of the random ranks, which is exactly what the HIP
// conditioning argument (Lemma 5.1) requires; any fixed rank-independent
// tie-break yields the same estimator guarantees.
//
// Φ_<j(v) below always refers to the set of nodes that strictly precede j
// in this order, and the Dijkstra rank π_vj is j's 1-based position in it.
//
// # Storage model
//
// Entries are stored columnarly: a built set owns one Frame (offsets, a
// node column bit-packed at the width the set's node count needs and a
// step code of the distances — a bit per entry, a float per distinct
// distance of a sketch — shared by all sketches), and the sketch types
// here are lightweight views over the columns that derive an entry's rank
// from the set's seed, and decode its node from the packed bits and its
// distance from the steps, when asked for it.  A sketch rebuilt from
// transported entries (ADSFromEntries) owns private columns, plain nodes,
// distances and ranks included.
package core

import (
	"fmt"
	"math"
)

// Entry is one ADS record: a sampled node, its distance from the ADS owner,
// and its rank.  For base-b sketches Rank holds the rounded rank.
type Entry struct {
	Node int32
	Dist float64
	Rank float64
}

// before reports whether entry a precedes entry b in the canonical
// (distance, node ID) order.
func (a Entry) before(b Entry) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Node < b.Node
}

// WeightedEntry is an ADS entry with its HIP adjusted weight a_vj = 1/τ_vj
// (Section 5): an unbiased estimate of j's presence in the distance
// relation of the owner.
type WeightedEntry struct {
	Node   int32
	Dist   float64
	Weight float64
}

// Sketch is the query interface shared by the uniform and weighted ADS.
// The HIP estimators (and everything built on them) work identically on
// both; only the inclusion probabilities differ (Sections 5 and 9).
type Sketch interface {
	// K is the sketch parameter controlling size/accuracy.
	K() int
	// Size is the number of stored entries.
	Size() int
	// Node is the owner node of the sketch.
	Node() int32
	// EstimateNeighborhood returns the basic (Section 4) estimate of
	// n_d = |N_d(owner)|, obtained by extracting the MinHash sketch of
	// N_d from the ADS and applying the basic estimator.
	EstimateNeighborhood(d float64) float64
	// HIPEntries returns every stored node with its distance and HIP
	// adjusted weight, ordered by the canonical order.  Summing weights
	// over Dist <= d gives the HIP estimate of n_d; weighting by
	// g(node, dist) gives the Q_g estimator (equation (5)).
	HIPEntries() []WeightedEntry
}

// ADS is a bottom-k All-Distances Sketch (Section 2, equation (4)):
// node j is included iff r(j) < k-th smallest rank among nodes preceding j
// in the canonical order.  Entries are stored in canonical order, as a
// view over columnar storage.
type ADS struct {
	k    int
	node int32
	c    cols
}

var _ Sketch = (*ADS)(nil)

// K returns the sketch parameter.
func (a *ADS) K() int { return a.k }

// Node returns the owner node.
func (a *ADS) Node() int32 { return a.node }

// Size returns the number of entries.
func (a *ADS) Size() int { return a.c.len() }

// Entries materializes the entries in canonical order.  The sketch
// stores its entries columnarly, so the returned slice is a fresh copy;
// iterate with Size/EntryAt to avoid the allocation.
func (a *ADS) Entries() []Entry { return a.c.entries() }

// EntryAt returns entry i in canonical order.
func (a *ADS) EntryAt(i int) Entry { return a.c.at(i) }

// SizeWithin returns |{entries with Dist <= d}|, the input of the size-only
// estimator (Section 8).
func (a *ADS) SizeWithin(d float64) int {
	return a.c.sizeWithin(d)
}

// MinHashWithin extracts the bottom-k MinHash sketch of N_d(owner): the k
// smallest ranks among entries with Dist <= d, ascending.  If fewer than k
// nodes are within distance d the returned slice is shorter and the
// neighborhood cardinality is its exact length (Section 2: the ADS
// "contains" a MinHash sketch of every neighborhood).
func (a *ADS) MinHashWithin(d float64) []float64 {
	m := a.SizeWithin(d)
	h := newKSmallest(a.k)
	for i := 0; i < m; i++ {
		h.offer(a.c.rankAt(i))
	}
	return h.sorted()
}

// EstimateNeighborhood returns the basic bottom-k estimate of n_d
// (Section 4.2): exact count when fewer than k entries are within d,
// otherwise (k-1)/τ_k over the extracted MinHash sketch.
func (a *ADS) EstimateNeighborhood(d float64) float64 {
	mh := a.MinHashWithin(d)
	if len(mh) < a.k {
		return float64(len(mh))
	}
	return float64(a.k-1) / mh[a.k-1] // a rank is never 0
}

// HIPEntries returns the entries with their HIP adjusted weights
// (Lemma 5.1): scanning in canonical order, τ_vj is the k-th smallest rank
// among prior entries (1 for the first k), and a_vj = 1/τ_vj.
//
// The same code serves full-precision and base-b sketches: with rounded
// ranks the k-th smallest prior rounded rank is itself a grid value t, and
// P(rounded rank of j < t) = t exactly (Section 5.6), so the inverse
// probability is again 1/threshold.
func (a *ADS) HIPEntries() []WeightedEntry {
	w := hipWeightsBottomK(a.c.ranks(), a.k, newKSmallest(a.k), make([]float64, 0, a.c.len()))
	return a.c.weighted(w)
}

// Validate checks the structural invariants: canonical order, the
// inclusion condition (each entry's rank strictly below the k-th smallest
// rank among prior entries) and the owner as first entry, at distance 0 —
// so an empty sketch is refused.  It returns the first violation found.
func (a *ADS) Validate() error {
	// Whole columns, not an entry at a time: slices a filled view already
	// has, unpacked once otherwise.
	nodes, dists, ranks := a.c.nodes(), a.c.dists(), a.c.ranks()
	h := newKSmallest(a.k)
	var prev Entry
	for i, r := range ranks {
		e := Entry{Node: nodes[i], Dist: dists[i], Rank: r}
		if i > 0 && !prev.before(e) {
			return fmt.Errorf("core: ADS(%d) entries %d,%d out of canonical order", a.node, i-1, i)
		}
		if h.size() >= a.k && e.Rank >= h.max() {
			return fmt.Errorf("core: ADS(%d) entry %d (node %d, rank %g) fails inclusion test against threshold %g",
				a.node, i, e.Node, e.Rank, h.max())
		}
		h.offer(e.Rank)
		prev = e
	}
	if len(nodes) == 0 || nodes[0] != a.node || dists[0] != 0 {
		return fmt.Errorf("core: ADS(%d) does not start with the owner at distance 0", a.node)
	}
	return nil
}

// kSmallest keeps the k smallest values offered, in ascending order,
// exposing their maximum (the k-th smallest overall): an offer below it
// shifts the larger ones up a slot, the largest falling off once k are
// held.
type kSmallest struct {
	k int
	v []float64 // ascending
}

func newKSmallest(k int) *kSmallest { return &kSmallest{k: k, v: make([]float64, 0, k)} }

// reset empties the slots for reuse, keeping their storage.
func (h *kSmallest) reset() { h.v = h.v[:0] }

func (h *kSmallest) size() int { return len(h.v) }

// max returns the largest retained value (the k-th smallest offered); the
// caller must ensure one is held.
func (h *kSmallest) max() float64 { return h.v[len(h.v)-1] }

func (h *kSmallest) offer(x float64) {
	i := len(h.v)
	switch {
	case i < h.k:
		h.v = append(h.v, x)
	case x < h.v[i-1]:
		i--
	default:
		return
	}
	for ; i > 0 && h.v[i-1] > x; i-- {
		h.v[i] = h.v[i-1]
	}
	h.v[i] = x
}

// sorted returns the retained values in ascending order.
func (h *kSmallest) sorted() []float64 { return append([]float64(nil), h.v...) }

// sumWithin sums HIP weights over entries with Dist <= d.
func sumWithin(entries []WeightedEntry, d float64) float64 {
	sum := 0.0
	for _, e := range entries {
		if e.Dist > d {
			break
		}
		sum += e.Weight
	}
	return sum
}

// EstimateNeighborhoodHIP returns the HIP estimate of n_d: the sum of
// adjusted weights of entries within distance d (Section 5).
func EstimateNeighborhoodHIP(s Sketch, d float64) float64 {
	return sumWithin(s.HIPEntries(), d)
}

// EstimateQ returns the HIP estimate (equation (5)) of
// Q_g = Σ_{j reachable} g(j, d_vj): the adjusted-weight-weighted sum of g
// over the sketch.  g must be nonnegative for the variance guarantees of
// Corollary 5.3 to apply; unbiasedness holds for any g.
func EstimateQ(s Sketch, g func(node int32, dist float64) float64) float64 {
	sum := 0.0
	for _, e := range s.HIPEntries() {
		sum += e.Weight * g(e.Node, e.Dist)
	}
	return sum
}

// EstimateCentrality returns the HIP estimate (equation (3)) of the
// distance-decaying, metadata-weighted centrality
// C_{α,β} = Σ_j α(d_vj)·β(j), for a non-increasing kernel α and node
// weighting/filter β chosen at query time.
func EstimateCentrality(s Sketch, alpha func(dist float64) float64, beta func(node int32) float64) float64 {
	return EstimateQ(s, func(node int32, dist float64) float64 {
		return alpha(dist) * beta(node)
	})
}

// Closeness kernels from Section 1.

// KernelThreshold returns α(x) = 1 for x <= d, else 0 (neighborhood
// cardinality).
func KernelThreshold(d float64) func(float64) float64 {
	return func(x float64) float64 {
		if x <= d {
			return 1
		}
		return 0
	}
}

// KernelReachability is α(x) ≡ 1 (count of reachable nodes).
func KernelReachability(x float64) float64 { return 1 }

// KernelExponential returns α(x) = 2^{-x} (exponentially attenuated
// centrality, Dangalchev).
func KernelExponential(x float64) float64 { return math.Exp2(-x) }

// KernelHarmonic returns α(x) = 1/x for x > 0 and 0 at x = 0 (harmonic
// centrality).
func KernelHarmonic(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 1 / x
}

// KernelIdentity returns α(x) = x; with it, EstimateCentrality estimates
// the sum of distances, the inverse of classic closeness centrality.
func KernelIdentity(x float64) float64 { return x }

// UnitBeta is the β ≡ 1 node weighting.
func UnitBeta(int32) float64 { return 1 }
