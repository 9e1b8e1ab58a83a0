package core

import "adsketch/internal/graph"

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
// c depending on the rejection-chain depth.  The tests measure the worst
// observed slack exactly and pin it; in practice it stays very close to
// the single-(1+ε) the paper states.

// BuildApproxSet computes (1+ε)-approximate bottom-k sketches with the
// LocalUpdates message-passing scheme.
func BuildApproxSet(g *graph.Graph, k int, seed uint64, eps float64) (*Set, error) {
	p := Params{Kind: KindApprox, Options: Options{K: k, Seed: seed}, Eps: eps}
	if err := p.validate(); err != nil {
		return nil, err
	}
	kern := NewOfferKernel(k)
	out := messageRounds(g, runSpec{k: k, rank: p.rankFn()}, func(list []Entry, e Entry) ([]Entry, bool) {
		return kern.OfferApprox(list, e, eps)
	})
	return &Set{frame: freezeWhole(p, out)}, nil
}
