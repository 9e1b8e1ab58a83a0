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
// synchronized message rounds of Algorithm 2 (LOCALUPDATES) under the
// relaxed offer rule.
func BuildApproxSet(g *graph.Graph, k int, seed uint64, eps float64) (*Set, error) {
	p := Params{Kind: KindApprox, Options: Options{K: k, Seed: seed}, Eps: eps}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &Set{frame: freezeWhole(p, messageRounds(g, p))}, nil
}

// messageRounds is the synchronized-round driver of Algorithm 2 under
// the (1+ε) rule of an approximate set of p.  Each node starts with its
// own entry; whenever the rule accepts an entry into ADS(u), the pair
// (node, dist + w(v,u)) is sent to every in-neighbor v — the nodes that can
// reach u's samples through u.  Rounds deliver the whole inbox in arrival
// order until no messages remain, which matches the MapReduce execution
// model the paper targets; their number is bounded by the hop diameter of
// the graph.
func messageRounds(g *graph.Graph, p Params) [][]Entry {
	rank, kern := p.rankFn(), NewOfferKernel(p.K)
	n := g.NumNodes()
	lists := make([][]Entry, n)
	tr := g.Transpose()

	type msg struct {
		to int32
		e  Entry
	}
	var inbox []msg
	send := func(u int32, e Entry) {
		ins, ws := tr.Neighbors(u)
		for i, v := range ins {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			inbox = append(inbox, msg{to: v, e: Entry{Node: e.Node, Dist: e.Dist + w, Rank: e.Rank}})
		}
	}

	for v := int32(0); int(v) < n; v++ {
		e := Entry{Node: v, Dist: 0, Rank: rank(v)}
		lists[v] = []Entry{e}
		send(v, e)
	}
	for len(inbox) > 0 {
		batch := inbox
		inbox = nil
		for _, m := range batch {
			var propagate bool
			if lists[m.to], propagate = kern.OfferApprox(lists[m.to], m.e, p.Eps); propagate {
				send(m.to, m.e)
			}
		}
	}
	return lists
}
