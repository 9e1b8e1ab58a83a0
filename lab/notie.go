package lab

import (
	"fmt"
	"sort"

	"adsketch/internal/core"
)

// Appendix A: ADS without tie breaking.  When many nodes share a distance
// (e.g. hop distances on unweighted graphs), the canonical tie-broken ADS
// can hold many same-distance entries; the modified definition keeps at
// most the k smallest-ranked nodes per distinct distance:
//
//	u ∈ ADS(v)  ⇔  r(u) <= k-th smallest rank in N_{d_vu}(v),
//
// where N_{d}(v) is the closed neighborhood within distance d (including u
// itself).  The modified sketch is a subset of the tie-broken one per
// distance level.  Its HIP weights are assigned only to nodes that hold
// one of the k-1 smallest ranks in their closed neighborhood; the node
// holding exactly the k-th smallest rank is stored but "not sampled"
// (weight 0).  The resulting estimator has CV at most 1/sqrt(k-2).
type NoTieADS struct {
	k       int
	node    int32
	entries []core.Entry // sorted by (Dist, Rank)
}

// NewNoTieADS returns an empty modified (no-tie-breaking) bottom-k ADS.
func NewNoTieADS(node int32, k int) *NoTieADS {
	if k < 2 {
		panic("lab: NoTieADS requires k >= 2 (the k-th rank holder is unsampled)")
	}
	return &NoTieADS{k: k, node: node}
}

// K returns the sketch parameter.
func (a *NoTieADS) K() int { return a.k }

// Node returns the owner.
func (a *NoTieADS) Node() int32 { return a.node }

// Size returns the number of entries.
func (a *NoTieADS) Size() int { return len(a.entries) }

// Entries returns the entries ordered by (distance, rank).
func (a *NoTieADS) Entries() []core.Entry { return a.entries }

// OfferGroup presents all nodes at one distance (strictly greater than any
// previous group's), applying the closed-neighborhood inclusion rule to
// the whole group at once.  It returns the number of nodes admitted.
func (a *NoTieADS) OfferGroup(dist float64, nodes []int32, rankOf func(int32) float64) int {
	if n := len(a.entries); n > 0 && a.entries[n-1].Dist >= dist {
		panic(fmt.Sprintf("lab: OfferGroup distance %g not increasing", dist))
	}
	// k-th smallest rank in the closed neighborhood = k-th smallest over
	// previous entries (which include all previously-admitted low ranks)
	// and the group's own ranks.
	var ranks []float64
	for _, e := range a.entries {
		ranks = keepSmallest(ranks, e.Rank, a.k)
	}
	group := make([]core.Entry, 0, len(nodes))
	for _, v := range nodes {
		r := rankOf(v)
		ranks = keepSmallest(ranks, r, a.k)
		group = append(group, core.Entry{Node: v, Dist: dist, Rank: r})
	}
	kth := kthOrOne(ranks, a.k)
	admitted := 0
	sort.Slice(group, func(i, j int) bool { return group[i].Rank < group[j].Rank })
	for _, e := range group {
		if e.Rank <= kth {
			a.entries = append(a.entries, e)
			admitted++
		}
	}
	return admitted
}

// HIPEntries assigns Appendix A adjusted weights: scanning entries in
// (distance, rank) order, an entry u at distance d is "sampled" iff it
// holds one of the k-1 smallest ranks in the closed neighborhood N_d; its
// weight is then the inverse of the k-th smallest rank of N_d (the
// threshold below which u's rank had to fall), else 0.  The k smallest
// ranks of N_d are always present in the sketch, so both quantities are
// computable from the entries alone.
func (a *NoTieADS) HIPEntries() []core.WeightedEntry {
	out := make([]core.WeightedEntry, 0, len(a.entries))
	var ranks []float64
	for gStart := 0; gStart < len(a.entries); {
		gEnd := gStart
		d := a.entries[gStart].Dist
		for gEnd < len(a.entries) && a.entries[gEnd].Dist == d {
			gEnd++
		}
		// Fold the whole group into the closed-neighborhood rank pool.
		for i := gStart; i < gEnd; i++ {
			ranks = keepSmallest(ranks, a.entries[i].Rank, a.k)
		}
		kth := kthOrOne(ranks, a.k)
		for i := gStart; i < gEnd; i++ {
			e := a.entries[i]
			w := 0.0
			if e.Rank < kth || len(ranks) < a.k {
				w = 1 / kth
			}
			out = append(out, core.WeightedEntry{Node: e.Node, Dist: e.Dist, Weight: w})
		}
		gStart = gEnd
	}
	return out
}

// EstimateNeighborhood returns the HIP estimate of n_d from the modified
// sketch: the sum of adjusted weights over entries with Dist <= d.
func (a *NoTieADS) EstimateNeighborhood(d float64) float64 {
	sum := 0.0
	for _, e := range a.HIPEntries() {
		if e.Dist > d {
			break
		}
		sum += e.Weight
	}
	return sum
}
