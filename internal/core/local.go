package core

import (
	"sort"

	"adsketch/internal/graph"
)

// partialADS is the under-construction entry list of one node for the
// builders that insert out of rank order (LocalUpdates, the approximate
// construction), kept in canonical order so "how many entries precede
// (d, node)" is a binary search.
type partialADS []Entry

// countBefore returns the number of entries that precede e canonically.
func (p partialADS) countBefore(e Entry) int {
	return sort.Search(len(p), func(i int) bool { return !p[i].before(e) })
}

// insertAt inserts e at position i.
func (p *partialADS) insertAt(i int, e Entry) {
	*p = append(*p, Entry{})
	copy((*p)[i+1:], (*p)[i:])
	(*p)[i] = e
}

// localUpdatesRun is Algorithm 2 (LOCALUPDATES): node-centric construction
// for weighted graphs, suitable for synchronized (Pregel/MapReduce-style)
// execution.  Each node starts with its own entry; whenever an entry is
// added to ADS(u), the pair (candidate, dist + w(v,u)) is sent to every
// in-neighbor v.  Because edge lengths are arbitrary, entries can arrive
// out of distance order: an insertion may invalidate later entries, which
// the clean-up step removes (the overhead Section 3 bounds by the hop
// diameter for synchronized rounds).
//
// The simulation here runs synchronized rounds until no messages remain,
// which matches the MapReduce execution model the paper targets; the
// number of rounds is bounded by the hop diameter of the graph.
func localUpdatesRun(g *graph.Graph, s runSpec) [][]Entry {
	n := g.NumNodes()
	lists := make([]partialADS, n)
	tr := g.Transpose()

	type msg struct {
		to int32
		e  Entry
	}
	var inbox []msg

	// send queues the propagation of a fresh entry at node u to all
	// in-neighbors of u (nodes that can reach u's samples through u).
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

	// insert applies the Algorithm 2 update rule at node v: reject if a
	// better-or-equal entry for the same node exists; insert if the rank
	// beats the k-th smallest rank among canonically-earlier entries; then
	// clean up every later entry whose own inclusion test broke.  Returns
	// whether the ADS changed in a way that must be propagated.
	h := newMaxHeap(s.k) // scratch, reused across insertions
	insert := func(v int32, e Entry) bool {
		p := &lists[v]
		// Duplicate handling: an existing entry for the same node with
		// smaller-or-equal distance supersedes the arrival; a farther one
		// is superseded by it.
		for i := range *p {
			if (*p)[i].Node == e.Node {
				if !e.before((*p)[i]) {
					return false
				}
				copy((*p)[i:], (*p)[i+1:])
				*p = (*p)[:len(*p)-1]
				break
			}
		}
		pos := p.countBefore(e)
		// Inclusion test: rank strictly below the k-th smallest rank among
		// canonically-earlier entries.
		h.reset()
		for i := 0; i < pos; i++ {
			h.offer((*p)[i].Rank)
		}
		if h.size() >= s.k && e.Rank >= h.max() {
			return false
		}
		p.insertAt(pos, e)
		// Clean-up (Algorithm 2): re-validate entries after the insertion
		// point in canonical order, removing any whose rank no longer
		// beats the threshold of its prefix.
		h.offer(e.Rank)
		keep := (*p)[:pos+1]
		for i := pos + 1; i < len(*p); i++ {
			cur := (*p)[i]
			if h.size() >= s.k && cur.Rank >= h.max() {
				continue // drop: superseded by the new entry
			}
			h.offer(cur.Rank)
			keep = append(keep, cur)
		}
		*p = keep
		return true
	}

	// Initialization: every candidate node starts its own ADS and
	// propagates itself.
	for v := int32(0); int(v) < n; v++ {
		if !s.candidate(v) {
			continue
		}
		e := Entry{Node: v, Dist: 0, Rank: s.rank(v)}
		lists[v] = partialADS{e}
		send(v, e)
	}

	// Synchronized rounds: deliver the whole inbox, collecting newly
	// accepted entries to propagate next round.
	for len(inbox) > 0 {
		batch := inbox
		inbox = nil
		for _, m := range batch {
			if insert(m.to, m.e) {
				send(m.to, m.e)
			}
		}
	}

	out := make([][]Entry, n)
	for v := range lists {
		out[v] = lists[v]
	}
	return out
}
