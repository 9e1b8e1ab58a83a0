package lab

import (
	"fmt"
	"math"

	"adsketch"
	"adsketch/internal/core"
)

// BuildApprox computes (1+ε)-approximate bottom-k sketches (Section 3) with
// the synchronized message rounds of Algorithm 2 (LOCALUPDATES) under the
// relaxed offer rule, core.OfferKernel.OfferApprox:
//
//	insert (x, a)  iff  r(x) < kth{ r(y) | y ∈ ADS, d_y <= a(1+ε) },
//
// which bounds the updates per entry by log_{1+ε}(n·w_max/w_min) on the
// adversarial weighted graphs where exact LOCALUPDATES can be forced into a
// linear number of insert-then-supersede updates per node.  The paper
// remarks (without proof) that the result satisfies r(v) > kth{entries
// within (1+ε)d_uv} for every absent v; under message passing a rejected
// insertion is not re-propagated, so the slack can compound along a chain
// of rejections.
//
// Each node starts with its own entry; whenever the rule accepts an entry
// into ADS(u), the pair (node, dist + w(v,u)) is sent to every in-neighbor
// v.  Rounds deliver the whole inbox in arrival order until no messages
// remain, the MapReduce execution model the paper targets.  The kind is
// schedule-dependent: the serving binaries build it with internal/distbuild,
// whose rounds apply each inbox in (dist, target, node) order instead, so
// its sets are valid approximate sets but not these.  Ranks are the
// full-precision uniform ranks adsketch.Build draws under the same seed, and
// the set is frozen by core.FreezeLists, which derives every rank again.
func BuildApprox(g *adsketch.Graph, k int, seed uint64, eps float64) (*adsketch.Set, error) {
	if k < 1 || k > core.MaxK {
		return nil, fmt.Errorf("lab: BuildApprox with k = %d, must be in [1, %d]", k, core.MaxK)
	}
	if eps < 0 || math.IsNaN(eps) || math.IsInf(eps, 1) {
		return nil, fmt.Errorf("lab: BuildApprox with eps = %g, must be a finite value >= 0", eps)
	}
	p := core.Params{Kind: core.KindApprox, Options: core.Options{K: k, Seed: seed}, Eps: eps}
	src, kern := p.Source(), core.NewOfferKernel(k)
	n := g.NumNodes()
	lists := make([][]core.Entry, n)
	tr := g.Transpose()

	type msg struct {
		to int32
		e  core.Entry
	}
	var inbox []msg
	send := func(u int32, e core.Entry) {
		ins, ws := tr.Neighbors(u)
		for i, v := range ins {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			inbox = append(inbox, msg{to: v, e: core.Entry{Node: e.Node, Dist: e.Dist + w, Rank: e.Rank}})
		}
	}

	for v := int32(0); int(v) < n; v++ {
		e := core.Entry{Node: v, Dist: 0, Rank: src.Rank(int64(v))}
		lists[v] = []core.Entry{e}
		send(v, e)
	}
	for len(inbox) > 0 {
		batch := inbox
		inbox = nil
		for _, m := range batch {
			var propagate bool
			if lists[m.to], propagate = kern.OfferApprox(lists[m.to], m.e, eps); propagate {
				send(m.to, m.e)
			}
		}
	}
	return core.FreezeLists(p, 0, 0, n, lists, nil, true)
}
