package core

import "adsketch/internal/graph"

// The definitional construction, the reference every builder is tested
// against: each node's entry list read off its exact nearest-neighbour
// order, an entry kept iff its rank is below the k-th smallest kept so far.
// O(n·m) and simple.

// bruteForceRun is the reference's entry lists for one pass.
func bruteForceRun(g *graph.Graph, s runSpec) [][]Entry {
	n := g.NumNodes()
	lists := make([][]Entry, n)
	for v := 0; v < n; v++ {
		order := graph.NearestOrder(g, int32(v))
		h := newKSmallest(s.k)
		for _, nd := range order {
			r := s.rank(nd.Node)
			if h.size() >= s.k && r >= h.max() {
				continue
			}
			lists[v] = append(lists[v], Entry{Node: nd.Node, Dist: nd.Dist, Rank: r})
			h.offer(r)
		}
	}
	return lists
}

// bruteForceSet is the reference uniform set of o over g.
func bruteForceSet(g *graph.Graph, o Options) *Set {
	p := Params{Kind: KindUniform, Options: o}
	return &Set{frame: mustFreezeWhole(p, bruteForceRun(g, runSpec{k: o.K, rank: o.rankFn()}), nil)}
}

// mustFreezeWhole is freezeWhole of lists that have their codes: a
// reference's, or a test's own.
func mustFreezeWhole(p Params, lists [][]Entry, beta []float64) *Frame {
	f, err := freezeWhole(p, lists, beta)
	if err != nil {
		panic(err)
	}
	return f
}

// bruteForceWeightedSet is the reference weighted set of p over g and the
// node weights beta: weightedSetFrom with the reference's entry lists.
func bruteForceWeightedSet(g *graph.Graph, p Params, beta []float64) *Set {
	by := newRanker(p)
	lists := bruteForceRun(g, runSpec{k: p.K, rank: func(v int32) float64 { return by.rank(v, beta[v]) }})
	var b []float64
	for _, l := range lists {
		for _, e := range l {
			b = append(b, beta[e.Node])
		}
	}
	return &Set{frame: mustFreezeWhole(p, lists, b)}
}

// adsOf is the ADS of owner over entries as given, unchecked: the fixture
// of the tests that hand-build a sketch, valid or not.
func adsOf(owner int32, k int, entries []Entry) *ADS {
	return &ADS{k: k, node: owner, c: colsFromEntries(entries)}
}
