package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"adsketch/internal/graph"
)

// equalSketches compares two bottom-k sketches entry by entry.
func equalSketches(t *testing.T, label string, a, b Sketch) {
	t.Helper()
	equalEntryLists(t, label, a.(*ADS).Entries(), b.(*ADS).Entries())
}

func equalEntryLists(t *testing.T, label string, a, b []Entry) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d entries\n%v\n%v", label, len(a), len(b), a, b)
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].Rank != b[i].Rank ||
			!almostEqual(a[i].Dist, b[i].Dist) {
			t.Fatalf("%s: entry %d differs: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

func almostEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+a+b)
}

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path":          graph.Path(40),
		"cycle":         graph.Cycle(37),
		"grid":          graph.Grid(7, 8),
		"gnp":           graph.GNP(120, 0.04, false, 5),
		"gnp-directed":  graph.GNP(100, 0.05, true, 6),
		"ba":            graph.PreferentialAttachment(150, 3, 7),
		"tree":          graph.RandomTree(90, 8),
		"disconnected":  graph.GNP(80, 0.01, false, 9),
		"star":          graph.Star(30),
		"two-node":      graph.Path(2),
		"singleton":     graph.Path(1),
		"complete-tiny": graph.Complete(6),
	}
}

func weightedTestGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"wpath":         graph.WithRandomWeights(graph.Path(30), 1, 4, 11),
		"wgrid":         graph.WithRandomWeights(graph.Grid(6, 6), 0.5, 2, 12),
		"wgnp":          graph.WithRandomWeights(graph.GNP(80, 0.06, false, 13), 1, 10, 14),
		"wgnp-directed": graph.WithRandomWeights(graph.GNP(70, 0.07, true, 15), 1, 3, 16),
		"wba":           graph.WithRandomWeights(graph.PreferentialAttachment(90, 2, 17), 1, 2, 18),
	}
}

// TestBuildersAgreeUnweighted checks that BuildSet (Algorithm 1) and the
// brute-force reference produce identical sketch sets on unweighted
// graphs.
func TestBuildersAgreeUnweighted(t *testing.T) {
	for name, g := range testGraphs() {
		for _, k := range []int{1, 3, 8} {
			o := Options{K: k, Seed: 42}
			got, err := BuildSet(g, o)
			if err != nil {
				t.Fatal(err)
			}
			ref := bruteForceSet(g, o)
			for v := int32(0); int(v) < g.NumNodes(); v++ {
				label := fmt.Sprintf("%s/k=%d/node %d", name, k, v)
				equalSketches(t, label, ref.SketchOf(v), got.SketchOf(v))
			}
		}
	}
}

// TestBuildersAgreeWeighted checks BuildSet against brute force on
// weighted graphs.
func TestBuildersAgreeWeighted(t *testing.T) {
	for name, g := range weightedTestGraphs() {
		o := Options{K: 4, Seed: 99}
		got, err := BuildSet(g, o)
		if err != nil {
			t.Fatal(err)
		}
		ref := bruteForceSet(g, o)
		for v := int32(0); int(v) < g.NumNodes(); v++ {
			label := fmt.Sprintf("%s/node %d", name, v)
			equalSketches(t, label, ref.SketchOf(v), got.SketchOf(v))
		}
	}
}

// TestBuildersAgreeBaseB checks that base-b rounding (which introduces rank
// ties) still yields the reference's structures.
func TestBuildersAgreeBaseB(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp":  graph.GNP(100, 0.05, false, 21),
		"grid": graph.Grid(6, 7),
		"wgnp": graph.WithRandomWeights(graph.GNP(70, 0.06, false, 22), 1, 5, 23),
	}
	for name, g := range graphs {
		for _, b := range []float64{2, 1.2} {
			o := Options{K: 4, Seed: 77, BaseB: b}
			got, err := BuildSet(g, o)
			if err != nil {
				t.Fatal(err)
			}
			ref := bruteForceSet(g, o)
			for v := int32(0); int(v) < g.NumNodes(); v++ {
				label := fmt.Sprintf("%s/b=%g/node %d", name, b, v)
				equalSketches(t, label, ref.SketchOf(v), got.SketchOf(v))
			}
		}
	}
}

// TestBuiltSketchesValid validates the structural invariants of everything
// the builders produce.
func TestBuiltSketchesValid(t *testing.T) {
	g := graph.GNP(150, 0.04, false, 31)
	set, err := BuildSet(g, Options{K: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		if err := set.BottomK(v).Validate(); err != nil {
			t.Fatalf("node %d: %v", v, err)
		}
	}
}

// TestBottomKADSContainsKNearest checks the definitional property that the
// k closest nodes always belong to the bottom-k ADS.
func TestBottomKADSContainsKNearest(t *testing.T) {
	g := graph.PreferentialAttachment(200, 3, 44)
	const k = 6
	set, err := BuildSet(g, Options{K: k, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int32{0, 50, 199} {
		order := graph.NearestOrder(g, v)
		ads := set.BottomK(v)
		members := map[int32]bool{}
		for _, e := range ads.Entries() {
			members[e.Node] = true
		}
		for i := 0; i < k && i < len(order); i++ {
			if !members[order[i].Node] {
				t.Errorf("node %d: %d-th nearest (%d) missing from ADS", v, i, order[i].Node)
			}
		}
	}
}

// TestADSEntryDistancesAreShortestPaths checks that stored distances equal
// true shortest-path distances.
func TestADSEntryDistancesAreShortestPaths(t *testing.T) {
	g := graph.WithRandomWeights(graph.GNP(90, 0.07, true, 55), 1, 6, 56)
	set, err := BuildSet(g, Options{K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		dist := graph.Dijkstra(g, v)
		for _, e := range set.BottomK(v).Entries() {
			if !almostEqual(e.Dist, dist[e.Node]) {
				t.Fatalf("node %d entry %d: dist %g, true %g", v, e.Node, e.Dist, dist[e.Node])
			}
		}
	}
}

// TestDirectedForwardBackward: building on the transpose gives the
// backward sketches (distance measured toward the owner).
func TestDirectedForwardBackward(t *testing.T) {
	b := graph.NewBuilder(3, true)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(1, 2, 3)
	g := b.Build()
	fwd, err := BuildSet(g, Options{K: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	bwd, err := BuildSet(g.Transpose(), Options{K: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Forward ADS(0) reaches 0,1,2; backward ADS(0) sees only 0.
	if fwd.BottomK(0).Size() != 3 {
		t.Errorf("forward ADS(0) size = %d, want 3", fwd.BottomK(0).Size())
	}
	if bwd.BottomK(0).Size() != 1 {
		t.Errorf("backward ADS(0) size = %d, want 1", bwd.BottomK(0).Size())
	}
	// Backward ADS(2) sees all three with distances 5, 3, 0.
	be := bwd.BottomK(2).Entries()
	if len(be) != 3 || be[0].Dist != 0 || be[1].Dist != 3 || be[2].Dist != 5 {
		t.Errorf("backward ADS(2) entries = %v", be)
	}
}

func TestBuildSetErrors(t *testing.T) {
	g := graph.Path(4)
	wg := graph.WithRandomWeights(g, 1, 2, 1)
	for _, g := range []*graph.Graph{g, wg} {
		if _, err := BuildSet(g, Options{K: 0}); err == nil {
			t.Error("K=0 accepted")
		}
		if _, err := BuildSet(g, Options{K: 2, BaseB: 0.5}); err == nil {
			t.Error("BaseB=0.5 accepted")
		}
	}
}

func TestSetAccessors(t *testing.T) {
	g := graph.Path(10)
	o := Options{K: 2, Seed: 5}
	set, err := BuildSet(g, o)
	if err != nil {
		t.Fatal(err)
	}
	if set.NumNodes() != 10 {
		t.Errorf("NumNodes = %d", set.NumNodes())
	}
	if set.Params().Options != o {
		t.Error("Options not retained")
	}
	total := 0
	for v := int32(0); v < 10; v++ {
		total += set.SketchOf(v).Size()
	}
	if set.TotalEntries() != total {
		t.Errorf("TotalEntries = %d, want %d", set.TotalEntries(), total)
	}
}

// TestCoordination: sketches from the same seed sample the same low-rank
// nodes, enabling similarity estimation across nodes.
func TestCoordination(t *testing.T) {
	g := graph.Complete(30)
	o := Options{K: 5, Seed: 10}
	set, err := BuildSet(g, o)
	if err != nil {
		t.Fatal(err)
	}
	// In a complete graph all nodes share the same neighborhood at d=1, so
	// every ADS must sample the same k+? low-rank nodes at distance <= 1
	// (the k globally smallest ranks, plus the owner).
	src := o.Source()
	globalBest := map[int32]bool{}
	type nr struct {
		n int32
		r float64
	}
	var all []nr
	for v := int32(0); v < 30; v++ {
		all = append(all, nr{v, src.Rank(int64(v))})
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j].r < all[i].r {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	for i := 0; i < 5; i++ {
		globalBest[all[i].n] = true
	}
	for v := int32(0); v < 30; v++ {
		sampled := map[int32]bool{}
		for _, e := range set.BottomK(v).Entries() {
			sampled[e.Node] = true
		}
		for n := range globalBest {
			if !sampled[n] {
				t.Errorf("node %d: globally smallest-rank node %d missing (coordination broken)", v, n)
			}
		}
	}
}

func TestBuildersHandleMultiEdges(t *testing.T) {
	// Parallel edges and self-loops must not break any builder.
	b := graph.NewBuilder(5, false)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1) // parallel
	b.AddWeightedEdge(1, 2, 1)
	b.AddWeightedEdge(1, 2, 3) // parallel, heavier
	b.AddEdge(3, 3)            // self loop
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	g := b.Build()
	o := Options{K: 2, Seed: 13}
	ref := bruteForceSet(g, o)
	for _, workers := range []int{1, 3} {
		got, err := BuildSetParallel(g, o, workers)
		if err != nil {
			t.Fatal(err)
		}
		for v := int32(0); int(v) < g.NumNodes(); v++ {
			equalSketches(t, fmt.Sprintf("multi-edge/%d workers node %d", workers, v), ref.SketchOf(v), got.SketchOf(v))
		}
	}
}

func TestBuildersEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0, false).Build()
	set, err := BuildSet(g, Options{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Set{"BuildSet": set, "brute force": bruteForceSet(g, Options{K: 2, Seed: 1})} {
		if s.NumNodes() != 0 || s.TotalEntries() != 0 {
			t.Errorf("%s: nonempty result on empty graph", name)
		}
	}
}

func graphPathForTest(n int) *graph.Graph { return graph.Path(n) }

// TestPrunedDijkstraDifferential is the Algorithm 1 slice of the
// construction oracle: on random small graphs, every way of running the
// pruned kernel must serialize to the bytes of the definitional
// brute-force build, across k, rank ties (base-b) and both Section 9
// weighted schemes.  (Algorithm 2's exact rule runs in the distributed
// build, which internal/distbuild checks against BuildSet.)
func TestPrunedDijkstraDifferential(t *testing.T) {
	graphs := 300
	if testing.Short() {
		graphs = 40
	}
	// 8 workers are more than the nodes of one RandomSmall graph in six,
	// and of the two graphs that lead the sweep: no node, and one.
	workerCounts := []int{1, 2, 3, 8}
	v3 := func(s *Set) []byte {
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for seed := -2; seed < graphs; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		g := graph.NewBuilder(seed+2, false).Build() // seeds -2 and -1: no node, and one
		if seed >= 0 {
			g = graph.RandomSmall(rng)
		}
		n := g.NumNodes()
		beta := make([]float64, n)
		for v := range beta {
			beta[v] = []float64{0.5, 1, 2}[rng.Intn(3)]
		}
		desc := fmt.Sprintf("graph seed %d (n=%d edges=%d directed=%v weighted=%v)",
			seed, n, g.NumEdges(), g.Directed(), g.Weighted())
		for _, k := range []int{1, 2, 5} {
			for _, baseB := range []float64{0, 2} {
				o := Options{K: k, Seed: uint64(seed), BaseB: baseB}
				want := v3(bruteForceSet(g, o))
				for _, workers := range workerCounts {
					got, err := BuildSetParallel(g, o, workers)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(v3(got), want) {
						t.Fatalf("%s, k=%d b=%g: %d workers differ from brute force", desc, k, baseB, workers)
					}
				}
			}
			for _, scheme := range []WeightScheme{ExponentialWeights, PriorityWeights} {
				p := Params{Kind: KindWeighted, Options: Options{K: k, Seed: uint64(seed)}, Scheme: scheme}
				want := v3(bruteForceWeightedSet(g, p, beta))
				for _, workers := range workerCounts {
					got, err := weightedSetFrom(g, p, beta, workers)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(v3(got), want) {
						t.Fatalf("%s, weighted %v k=%d: %d workers differ from brute force", desc, scheme, k, workers)
					}
				}
			}
		}
	}
}
