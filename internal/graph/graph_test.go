package graph

import (
	"bytes"
	"math"
	"testing"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	if g.NumNodes() != 4 {
		t.Errorf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
	if g.NumArcs() != 6 {
		t.Errorf("NumArcs = %d, want 6 (undirected stores both)", g.NumArcs())
	}
	if g.Directed() || g.Weighted() {
		t.Error("graph should be undirected, unweighted")
	}
	ns, ws := g.Neighbors(1)
	if len(ns) != 2 || ns[0] != 0 || ns[1] != 2 {
		t.Errorf("Neighbors(1) = %v, want [0 2]", ns)
	}
	if ws != nil {
		t.Error("unweighted graph returned weights")
	}
	if g.OutDegree(0) != 1 || g.OutDegree(1) != 2 {
		t.Error("wrong degrees")
	}
}

func TestBuilderDirectedWeighted(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddWeightedEdge(0, 1, 2.5)
	b.AddWeightedEdge(0, 2, 1.5)
	b.AddWeightedEdge(2, 1, 0.5)
	g := b.Build()
	if !g.Directed() || !g.Weighted() {
		t.Fatal("flags wrong")
	}
	if g.NumEdges() != 3 || g.NumArcs() != 3 {
		t.Errorf("edges=%d arcs=%d", g.NumEdges(), g.NumArcs())
	}
	ns, ws := g.Neighbors(0)
	if len(ns) != 2 || ns[0] != 1 || ns[1] != 2 {
		t.Errorf("Neighbors(0) = %v", ns)
	}
	if ws[0] != 2.5 || ws[1] != 1.5 {
		t.Errorf("weights = %v", ws)
	}
	if d := g.OutDegree(1); d != 0 {
		t.Errorf("OutDegree(1) = %d, want 0", d)
	}
}

func TestBuilderPanics(t *testing.T) {
	check := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	check("out of range", func() { NewBuilder(2, false).AddEdge(0, 2) })
	check("negative node", func() { NewBuilder(2, false).AddEdge(-1, 0) })
	check("zero weight", func() { NewBuilder(2, false).AddWeightedEdge(0, 1, 0) })
	check("NaN weight", func() { NewBuilder(2, false).AddWeightedEdge(0, 1, math.NaN()) })
	check("infinite weight", func() { NewBuilder(2, false).AddWeightedEdge(0, 1, math.Inf(1)) })
	check("negative n", func() { NewBuilder(-1, false) })
}

func TestForEachArc(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(1, 2, 3)
	g := b.Build()
	total := 0.0
	arcs := 0
	g.ForEachArc(func(u, v int32, w float64) {
		total += w
		arcs++
	})
	if arcs != 2 || total != 5 {
		t.Errorf("arcs=%d total=%g", arcs, total)
	}
}

func TestTransposeDirected(t *testing.T) {
	b := NewBuilder(4, true)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(0, 2, 3)
	b.AddWeightedEdge(2, 3, 4)
	g := b.Build()
	tr := g.Transpose()
	ns, ws := tr.Neighbors(1)
	if len(ns) != 1 || ns[0] != 0 || ws[0] != 2 {
		t.Errorf("transpose Neighbors(1) = %v %v", ns, ws)
	}
	ns, _ = tr.Neighbors(3)
	if len(ns) != 1 || ns[0] != 2 {
		t.Errorf("transpose Neighbors(3) = %v", ns)
	}
	if tr.NumArcs() != g.NumArcs() {
		t.Error("transpose changed arc count")
	}
	// Transposing twice recovers the original arc multiset.
	tt := tr.Transpose()
	want := map[[2]int32]float64{}
	g.ForEachArc(func(u, v int32, w float64) { want[[2]int32{u, v}] = w })
	tt.ForEachArc(func(u, v int32, w float64) {
		if want[[2]int32{u, v}] != w {
			t.Errorf("double transpose lost arc (%d,%d,%g)", u, v, w)
		}
		delete(want, [2]int32{u, v})
	})
	if len(want) != 0 {
		t.Errorf("double transpose missing arcs: %v", want)
	}
}

func TestTransposeUndirectedIsSelf(t *testing.T) {
	g := Path(5)
	if g.Transpose() != g {
		t.Error("undirected transpose should return the receiver")
	}
}

func TestBFSPath(t *testing.T) {
	g := Path(5)
	d := BFS(g, 0)
	for i := 0; i < 5; i++ {
		if d[i] != int32(i) {
			t.Errorf("BFS dist[%d] = %d, want %d", i, d[i], i)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	b := NewBuilder(4, true)
	b.AddEdge(0, 1)
	// 2, 3 isolated from 0.
	b.AddEdge(2, 3)
	g := b.Build()
	d := BFS(g, 0)
	if d[2] != -1 || d[3] != -1 {
		t.Errorf("unreachable nodes should be -1, got %v", d)
	}
	if d[1] != 1 {
		t.Errorf("d[1] = %d", d[1])
	}
}

func TestDijkstraMatchesBFSOnUnweighted(t *testing.T) {
	g := GNP(200, 0.03, false, 7)
	for _, src := range []int32{0, 17, 99} {
		bd := BFS(g, src)
		dd := Dijkstra(g, src)
		for v := range bd {
			if bd[v] < 0 {
				if !math.IsInf(dd[v], 1) {
					t.Fatalf("node %d: BFS unreachable but Dijkstra %g", v, dd[v])
				}
				continue
			}
			if dd[v] != float64(bd[v]) {
				t.Fatalf("node %d: BFS %d vs Dijkstra %g", v, bd[v], dd[v])
			}
		}
	}
}

func TestDijkstraWeighted(t *testing.T) {
	// Diamond where the long direct edge loses to the two-hop path.
	b := NewBuilder(4, true)
	b.AddWeightedEdge(0, 1, 1)
	b.AddWeightedEdge(1, 3, 1)
	b.AddWeightedEdge(0, 3, 5)
	b.AddWeightedEdge(0, 2, 2)
	g := b.Build()
	d := Dijkstra(g, 0)
	want := []float64{0, 1, 2, 2}
	for v, w := range want {
		if d[v] != w {
			t.Errorf("d[%d] = %g, want %g", v, d[v], w)
		}
	}
}

func TestDistancesUnifiedView(t *testing.T) {
	g := Path(4)
	d := Distances(g, 1)
	want := []float64{1, 0, 1, 2}
	for v, w := range want {
		if d[v] != w {
			t.Errorf("d[%d] = %g, want %g", v, d[v], w)
		}
	}
	b := NewBuilder(2, true)
	b.AddEdge(0, 1)
	d = Distances(b.Build(), 1)
	if !math.IsInf(d[0], 1) {
		t.Errorf("unreachable should be +Inf, got %g", d[0])
	}
}

// visitAll drives one Visitor traversal, expanding the nodes keep accepts.
func visitAll(vis *Visitor, src int32, keep func(v int32, d float64) bool) {
	vis.Start(src)
	for v, d, ok := vis.Next(); ok; v, d, ok = vis.Next() {
		if keep(v, d) {
			vis.Expand(v, d)
		}
	}
}

func TestVisitAscendingOrderAndPrune(t *testing.T) {
	for name, g := range map[string]*Graph{
		"dijkstra": WithRandomWeights(Path(6), 1, 4, 9),
	} {
		vis := NewVisitor(g)
		var order []int32
		var dists []float64
		visitAll(vis, 2, func(v int32, d float64) bool {
			order = append(order, v)
			dists = append(dists, d)
			return true
		})
		if len(order) != 6 {
			t.Fatalf("%s: visited %d nodes, want 6", name, len(order))
		}
		for i := 1; i < len(dists); i++ {
			if dists[i] < dists[i-1] {
				t.Fatalf("%s: distances not non-decreasing", name)
			}
		}
		if order[0] != 2 || dists[0] != 0 {
			t.Errorf("%s: first visit = (%d,%g), want (2,0)", name, order[0], dists[0])
		}

		// Pruning at node 3 must stop the rightward expansion past it.
		var visited []int32
		visitAll(vis, 2, func(v int32, d float64) bool {
			visited = append(visited, v)
			return v != 3
		})
		for _, v := range visited {
			if v > 3 {
				t.Errorf("%s: node %d visited despite pruning at 3", name, v)
			}
		}
	}
}

func TestVisitorReuse(t *testing.T) {
	for name, g := range map[string]*Graph{
		"dijkstra": WithRandomWeights(GNP(300, 0.02, false, 3), 1, 8, 4),
	} {
		vis := NewVisitor(g)
		// The abandoned traversal must leave nothing behind for the next.
		vis.Start(7)
		vis.Next()
		vis.Expand(7, 0)
		for _, src := range []int32{0, 5, 250} {
			want := Distances(g, src)
			got := make([]float64, g.NumNodes())
			for i := range got {
				got[i] = Infinity
			}
			visitAll(vis, src, func(v int32, d float64) bool {
				got[v] = d
				return true
			})
			for v := range want {
				if want[v] != got[v] && !(math.IsInf(want[v], 1) && math.IsInf(got[v], 1)) {
					t.Fatalf("%s: src %d node %d: visitor %g, Distances %g", name, src, v, got[v], want[v])
				}
			}
		}
	}
}

func TestNearestOrder(t *testing.T) {
	g := Path(5)
	order := NearestOrder(g, 2)
	if order[0].Node != 2 || order[0].Dist != 0 {
		t.Fatalf("first = %+v", order[0])
	}
	// Ties at distance 1 (nodes 1,3) broken by ID; distance 2 (0,4) likewise.
	wantNodes := []int32{2, 1, 3, 0, 4}
	for i, w := range wantNodes {
		if order[i].Node != w {
			t.Errorf("order[%d] = %d, want %d", i, order[i].Node, w)
		}
	}
}

// TestReachableCount: NearestOrder lists exactly the nodes reachable from
// src, src included.
func TestReachableCount(t *testing.T) {
	b := NewBuilder(5, true)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build()
	if got := len(NearestOrder(g, 0)); got != 3 {
		t.Errorf("reachable from 0 = %d, want 3", got)
	}
	if got := len(NearestOrder(g, 4)); got != 1 {
		t.Errorf("reachable from 4 = %d, want 1", got)
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(6, false)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build()
	comp, c := ConnectedComponents(g)
	if c != 3 {
		t.Fatalf("components = %d, want 3", c)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("0,1,2 should share a component")
	}
	if comp[3] != comp[4] || comp[3] == comp[0] {
		t.Error("3,4 should share a separate component")
	}
	if comp[5] == comp[0] || comp[5] == comp[3] {
		t.Error("5 should be alone")
	}
}

func TestConnectedComponentsDirectedWeak(t *testing.T) {
	b := NewBuilder(3, true)
	b.AddEdge(0, 1)
	b.AddEdge(2, 1)
	g := b.Build()
	_, c := ConnectedComponents(g)
	if c != 1 {
		t.Errorf("weak components = %d, want 1", c)
	}
}

// BenchmarkEdgeListIO times what a serving set-up runs before Build: the
// benchmark graph's generator, PreferentialAttachment(10000,5,1), and the
// edge-list round trip of it.
func BenchmarkEdgeListIO(b *testing.B) {
	g := PreferentialAttachment(10000, 5, 1)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		b.Fatal(err)
	}
	b.Run("PreferentialAttachment", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			PreferentialAttachment(10000, 5, 1)
		}
	})
	b.Run("WriteEdgeList", func(b *testing.B) {
		b.ReportAllocs()
		var out bytes.Buffer
		for i := 0; i < b.N; i++ {
			out.Reset()
			if err := WriteEdgeList(&out, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ReadEdgeList", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ReadEdgeList(bytes.NewReader(buf.Bytes()), false); err != nil {
				b.Fatal(err)
			}
		}
	})
}
