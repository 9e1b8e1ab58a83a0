package core

import (
	"math"

	"adsketch/internal/graph"
	"adsketch/internal/rank"
)

// (1+ε)-approximate ADS (Section 3).  With LOCALUPDATES, adversarial
// weighted graphs can force a linear number of insert-then-supersede
// updates per node; the paper's remedy is to only accept an insertion when
// it beats the threshold with slack ε on distance:
//
//	insert (x, a)  iff  r(x) < kth{ r(y) | y ∈ ADS, d_y <= a(1+ε) },
//
// which bounds the updates per entry by log_{1+ε}(n·w_max/w_min).  The
// paper remarks (without proof) that the result satisfies
// r(v) > kth{entries within (1+ε)d_uv} for every absent v.  Under
// message passing, a rejected insertion is not re-propagated, so the ε
// slack can compound along a path of rejections; the invariant that holds
// robustly is the same statement with slack (1+ε)^c for a small constant
// c depending on the rejection-chain depth.  CheckApproxSlack measures
// the worst observed slack exactly, and the tests pin it; in practice it
// stays very close to the single-(1+ε) the paper states.

// BuildApproxSet computes (1+ε)-approximate bottom-k sketches with the
// LocalUpdates message-passing scheme.
func BuildApproxSet(g *graph.Graph, k int, seed uint64, eps float64) (*Set, error) {
	p := Params{Kind: KindApprox, Options: Options{K: k, Seed: seed}, Eps: eps}
	if err := p.validate(); err != nil {
		return nil, err
	}
	kern := NewOfferKernel(k)
	out := messageRounds(g, runSpec{k: k, rank: p.rankFn(0)}, func(list []Entry, e Entry) ([]Entry, bool) {
		return kern.OfferApprox(list, e, eps)
	})
	return &Set{frame: freezeWhole(p, out)}, nil
}

// CheckApproxSlack measures how far node u's approximate sketch is from
// the exact ADS semantics: for every node v absent from ADS(u), it finds
// the smallest slack s >= 1 such that r(v) >= k-th smallest rank among
// entries with distance <= s·d_uv, and returns the maximum over all
// absent v.  A return of 1 means the sketch satisfies the exact-ADS
// exclusion rule; the paper's remark corresponds to a bound of 1+ε.
func CheckApproxSlack(g *graph.Graph, set *Set, u int32, seed uint64) float64 {
	src := rank.NewSource(seed)
	a := set.BottomK(u)
	entries := a.Entries() // one materialized copy, reused across the scan
	members := make(map[int32]bool, a.Size())
	for _, e := range entries {
		members[e.Node] = true
	}
	worst := 1.0
	h := newKSmallest(set.K())
	for _, nd := range graph.NearestOrder(g, u) {
		if members[nd.Node] || nd.Dist == 0 {
			continue
		}
		r := src.Rank(int64(nd.Node))
		// Find the smallest window within which k entries of smaller rank
		// exist; the needed slack is that window over the true distance.
		h.reset()
		justified := false
		for _, e := range entries { // canonical order = ascending dist
			if e.Rank < r {
				h.offer(e.Rank)
			}
			if h.size() >= set.K() {
				if s := e.Dist / nd.Dist; s > worst {
					worst = s
				}
				justified = true
				break
			}
		}
		if !justified {
			// No window justifies the exclusion at all.
			return math.Inf(1)
		}
	}
	return worst
}
