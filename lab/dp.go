package lab

import (
	"cmp"
	"fmt"
	"slices"

	"adsketch"
	"adsketch/internal/core"
	"adsketch/internal/rank"
)

// BuildDP computes the bottom-k ADS of every node of an unweighted graph
// with the node-centric dynamic program of Section 3 (the round structure
// of ANF's k-mins and HyperANF's k-partition registers): Bellman–Ford
// rounds in which round t inserts exactly the entries at hop distance t.
// Entries therefore arrive in increasing distance, and within a round
// candidates are applied in node-ID order, so every insertion follows the
// canonical order and is final.  The entries added in round t-1 at node u
// are relaxed along every arc (v -> u), offering (candidate, t) to ADS(v):
// Σ_u indeg(u)·|ADS(u)| = O(k·m·log n) relaxations in expectation.
//
// Ranks are full precision or, for baseB > 1, base b, as adsketch.Build
// draws them under the same seed; the set is frozen by
// core.FreezeBottomK, which derives every rank again and checks the
// inclusion condition, and is the one adsketch.Build returns — DP is the
// same ADS, computed far more slowly than Algorithm 1.
func BuildDP(g *adsketch.Graph, k int, seed uint64, baseB float64) (*adsketch.Set, error) {
	if g.Weighted() {
		return nil, fmt.Errorf("lab: BuildDP requires an unweighted graph")
	}
	if k < 1 || k > core.MaxK {
		return nil, fmt.Errorf("lab: BuildDP with k = %d, must be in [1, %d]", k, core.MaxK)
	}
	o := core.Options{K: k, Seed: seed, BaseB: baseB}
	src := o.Source()
	rankOf := func(v int32) float64 { return src.Rank(int64(v)) }
	if baseB != 0 {
		if !(baseB > 1) {
			return nil, fmt.Errorf("lab: BuildDP with base %g, must be > 1 (or 0 for full ranks)", baseB)
		}
		b := rank.NewBaseB(baseB)
		rankOf = func(v int32) float64 { return b.Round(src.Rank(int64(v))) }
	}
	n := g.NumNodes()
	lists := make([][]core.Entry, n)
	pools := make([][]float64, n) // the k smallest ranks of each list, ascending
	member := make([]map[int32]bool, n)
	insert := func(v int32, e core.Entry) bool {
		if member[v][e.Node] {
			return false
		}
		if p := pools[v]; len(p) >= k && e.Rank >= p[k-1] {
			return false
		}
		lists[v] = append(lists[v], e)
		member[v][e.Node] = true
		pools[v] = keepSmallest(pools[v], e.Rank, k)
		return true
	}

	// An update is an entry for cand that node at gained.
	type update struct{ at, cand int32 }
	var frontier []update
	for v := int32(0); int(v) < n; v++ {
		member[v] = map[int32]bool{}
		insert(v, core.Entry{Node: v, Dist: 0, Rank: rankOf(v)})
		frontier = append(frontier, update{at: v, cand: v})
	}
	tr := g.Transpose() // the in-neighbours of a frontier node
	for dist := 1.0; len(frontier) > 0; dist++ {
		// Every in-neighbour of a node whose ADS gained an entry last
		// round may now include that entry one hop farther.
		var cands []update
		for _, up := range frontier {
			ins, _ := tr.Neighbors(up.at)
			for _, v := range ins {
				cands = append(cands, update{at: v, cand: up.cand})
			}
		}
		// In canonical order: per target node, by candidate ID; a repeat
		// is the same arrival over a parallel path.
		slices.SortFunc(cands, func(a, b update) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.cand, b.cand))
		})
		frontier = frontier[:0]
		for _, c := range slices.Compact(cands) {
			if insert(c.at, core.Entry{Node: c.cand, Dist: dist, Rank: rankOf(c.cand)}) {
				frontier = append(frontier, c)
			}
		}
	}
	return core.FreezeBottomK(o, lists)
}
