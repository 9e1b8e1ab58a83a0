package core

import (
	"testing"

	"adsketch/internal/graph"
)

// TestPaperExample21 reconstructs Example 2.1 of the paper.  Figure 1's
// exact topology is not fully recoverable from the text, but the example
// pins three sketch contents given the node ranks and the two distance
// sequences:
//
//	forward from a:  a,b,c,d,e,f,g,h at (0,8,9,18,19,20,21,26)
//	reverse to b:    b,a,g,c,h,d,e,f at (0,8,18,30,31,39,40,41)
//
//	forward bottom-1 ADS(a)  = {(0,a),(9,c),(18,d),(26,h)}
//	forward bottom-2 ADS(a)  = bottom-1 ∪ {(8,b),(20,f)}
//	reverse bottom-1 ADS(b)  = {(0,b),(8,a),(30,c),(31,h)}
//
// The rank assignment a=.5 b=.7 c=.4 d=.2 e=.6 f=.3 g=.8 h=.1 (a
// permutation of the figure's printed values) satisfies all three, and we
// verify our construction reproduces them on graphs realizing the two
// distance sequences.
func TestPaperExample21(t *testing.T) {
	const a, b, c, d, e, f, g, h = 0, 1, 2, 3, 4, 5, 6, 7
	ranks := map[int32]float64{a: .5, b: .7, c: .4, d: .2, e: .6, f: .3, g: .8, h: .1}
	rankFn := func(v int32) float64 { return ranks[v] }

	// G1 realizes the forward distances from a.
	gb := graph.NewBuilder(8, true)
	gb.AddWeightedEdge(a, b, 8)
	gb.AddWeightedEdge(a, c, 9)
	gb.AddWeightedEdge(c, d, 9)
	gb.AddWeightedEdge(d, e, 1)
	gb.AddWeightedEdge(e, f, 1)
	gb.AddWeightedEdge(f, g, 1)
	gb.AddWeightedEdge(g, h, 5)
	g1 := gb.Build()
	wantFwd := []float64{0, 8, 9, 18, 19, 20, 21, 26}
	dist := graph.Dijkstra(g1, a)
	for v, w := range wantFwd {
		if dist[v] != w {
			t.Fatalf("G1 distance to %d = %g, want %g", v, dist[v], w)
		}
	}

	check := func(label string, got []Entry, want []Entry) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d entries, want %d\n%v", label, len(got), len(want), got)
		}
		for i := range want {
			if got[i].Node != want[i].Node || got[i].Dist != want[i].Dist {
				t.Fatalf("%s: entry %d = (%d,%g), want (%d,%g)",
					label, i, got[i].Node, got[i].Dist, want[i].Node, want[i].Dist)
			}
		}
	}

	// Forward bottom-1 ADS(a).
	lists := bruteForceRun(g1, runSpec{k: 1, rank: rankFn})
	check("forward bottom-1 ADS(a)", lists[a], []Entry{
		{Node: a, Dist: 0}, {Node: c, Dist: 9}, {Node: d, Dist: 18}, {Node: h, Dist: 26},
	})

	// Forward bottom-2 ADS(a) adds (8,b) and (20,f).
	lists2 := bruteForceRun(g1, runSpec{k: 2, rank: rankFn})
	check("forward bottom-2 ADS(a)", lists2[a], []Entry{
		{Node: a, Dist: 0}, {Node: b, Dist: 8}, {Node: c, Dist: 9},
		{Node: d, Dist: 18}, {Node: f, Dist: 20}, {Node: h, Dist: 26},
	})

	// G2 realizes the reverse distances to b; the reverse ADS of b is the
	// forward ADS of b on the transpose, i.e. bruteForceRun on G2
	// transposed ... equivalently we build the star pointing into b and
	// run on its transpose.
	rb := graph.NewBuilder(8, true)
	rb.AddWeightedEdge(a, b, 8)
	rb.AddWeightedEdge(g, b, 18)
	rb.AddWeightedEdge(c, b, 30)
	rb.AddWeightedEdge(h, b, 31)
	rb.AddWeightedEdge(d, b, 39)
	rb.AddWeightedEdge(e, b, 40)
	rb.AddWeightedEdge(f, b, 41)
	g2 := rb.Build()
	revLists := bruteForceRun(g2.Transpose(), runSpec{k: 1, rank: rankFn})
	check("reverse bottom-1 ADS(b)", revLists[b], []Entry{
		{Node: b, Dist: 0}, {Node: a, Dist: 8}, {Node: c, Dist: 30}, {Node: h, Dist: 31},
	})

	// Algorithm 1 agrees with the brute-force reference here too (a custom
	// rank function exercises the runSpec path directly).
	got := prunedDijkstraRun(g1, runSpec{k: 1, rank: rankFn}, 0)
	check("prunedDijkstra ADS(a)", got[a], lists[a])
}
