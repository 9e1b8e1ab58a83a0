package core

import (
	"sort"

	"adsketch/internal/graph"
)

// dpRun is the node-centric dynamic-programming construction for unweighted
// graphs (Section 3; k-mins in ANF, k-partition in HyperANF): Bellman–Ford
// style rounds where round t inserts exactly the entries at hop distance t.
// Entries therefore arrive in increasing distance, and within a round
// candidates are applied in node-ID order, so insertions follow the
// canonical order and every inserted entry is final.
//
// Frontier entries added in round t-1 at node u are relaxed along every arc
// (v -> u), offering (candidate, t) to ADS(v); the relaxation count is
// bounded by Σ_u indeg(u)·|ADS(u)| = O(k·m·log n) in expectation.
func dpRun(g *graph.Graph, s runSpec) [][]Entry {
	n := g.NumNodes()
	lists := make([][]Entry, n)
	slots := make([]*kSmallest, n)
	member := make([]map[int32]struct{}, n)
	for v := 0; v < n; v++ {
		slots[v] = newKSmallest(s.k)
		member[v] = make(map[int32]struct{}, s.k)
	}
	// tr lets us iterate the in-neighbors of a frontier node.
	tr := g.Transpose()

	insert := func(v int32, e Entry) bool {
		if _, ok := member[v][e.Node]; ok {
			return false
		}
		h := slots[v]
		if h.size() >= s.k && e.Rank >= h.max() {
			return false
		}
		lists[v] = append(lists[v], e)
		member[v][e.Node] = struct{}{}
		h.offer(e.Rank)
		return true
	}

	// Round 0: every node starts its own ADS.
	type update struct {
		at   int32 // node whose ADS gained the entry
		cand int32 // the sampled node
	}
	var frontier []update
	for v := int32(0); int(v) < n; v++ {
		if insert(v, Entry{Node: v, Dist: 0, Rank: s.rank(v)}) {
			frontier = append(frontier, update{at: v, cand: v})
		}
	}

	type candidate struct {
		at   int32
		cand int32
	}
	for dist := 1.0; len(frontier) > 0; dist++ {
		// Gather candidates: every in-neighbor of a node whose ADS gained
		// an entry last round may now include that entry one hop farther.
		var cands []candidate
		for _, up := range frontier {
			ins, _ := tr.Neighbors(up.at)
			for _, v := range ins {
				cands = append(cands, candidate{at: v, cand: up.cand})
			}
		}
		// Apply in canonical order: per target node, by candidate ID.
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].at != cands[j].at {
				return cands[i].at < cands[j].at
			}
			return cands[i].cand < cands[j].cand
		})
		frontier = frontier[:0]
		var last candidate
		for i, c := range cands {
			if i > 0 && c == last {
				continue // duplicate arrival via parallel paths
			}
			last = c
			if insert(c.at, Entry{Node: c.cand, Dist: dist, Rank: s.rank(c.cand)}) {
				frontier = append(frontier, update{at: c.at, cand: c.cand})
			}
		}
	}
	return lists
}
