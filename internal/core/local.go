package core

import "adsketch/internal/graph"

// localUpdatesRun is Algorithm 2 (LOCALUPDATES): node-centric construction
// for weighted graphs, suitable for synchronized (Pregel/MapReduce-style)
// execution.  Because edge lengths are arbitrary, entries can arrive out of
// distance order: an insertion may invalidate later entries, which the
// kernel's clean-up step removes (the overhead Section 3 bounds by the hop
// diameter for synchronized rounds).
func localUpdatesRun(g *graph.Graph, s runSpec) [][]Entry {
	kern := NewOfferKernel(s.k)
	return messageRounds(g, s, func(list []Entry, e Entry) ([]Entry, bool) {
		list, _, _, changed := kern.Offer(list, nil, e, 0)
		return list, changed
	})
}

// messageRounds is the synchronized-round driver Algorithm 2 and the
// (1+ε)-approximate construction share.  Each node starts with
// its own entry; whenever offer accepts an entry into ADS(u), the pair
// (node, dist + w(v,u)) is sent to every in-neighbor v — the nodes that can
// reach u's samples through u.  Rounds deliver the whole inbox in arrival
// order until no messages remain, which matches the MapReduce execution
// model the paper targets; their number is bounded by the hop diameter of
// the graph.  offer returns v's list after the rule ran and whether the
// entry must be propagated.
func messageRounds(g *graph.Graph, s runSpec, offer func(list []Entry, e Entry) ([]Entry, bool)) [][]Entry {
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
		e := Entry{Node: v, Dist: 0, Rank: s.rank(v)}
		lists[v] = []Entry{e}
		send(v, e)
	}
	for len(inbox) > 0 {
		batch := inbox
		inbox = nil
		for _, m := range batch {
			var propagate bool
			if lists[m.to], propagate = offer(lists[m.to], m.e); propagate {
				send(m.to, m.e)
			}
		}
	}
	return lists
}
