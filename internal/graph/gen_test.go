package graph

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestPathCycleGridComplete(t *testing.T) {
	if g := Path(10); g.NumEdges() != 9 {
		t.Errorf("path edges = %d", g.NumEdges())
	}
	if g := Cycle(10); g.NumEdges() != 10 {
		t.Errorf("cycle edges = %d", g.NumEdges())
	}
	g := Grid(3, 4)
	if g.NumNodes() != 12 {
		t.Errorf("grid nodes = %d", g.NumNodes())
	}
	// 3x4 grid: horizontal 3*3=9, vertical 2*4=8.
	if g.NumEdges() != 17 {
		t.Errorf("grid edges = %d, want 17", g.NumEdges())
	}
	// Manhattan distance between corners.
	d := BFS(g, 0)
	if d[11] != 5 {
		t.Errorf("grid corner distance = %d, want 5", d[11])
	}
	if g := Complete(6); g.NumEdges() != 15 {
		t.Errorf("K6 edges = %d", g.NumEdges())
	}
	if g := Star(5); g.NumEdges() != 4 || outDegree(g, 0) != 4 {
		t.Error("star shape wrong")
	}
}

func TestRandomTreeConnectedAcyclic(t *testing.T) {
	g := RandomTree(500, 3)
	if g.NumEdges() != 499 {
		t.Fatalf("tree edges = %d, want 499", g.NumEdges())
	}
	if _, c := ConnectedComponents(g); c != 1 {
		t.Fatal("tree not connected")
	}
}

func TestGNPEdgeCount(t *testing.T) {
	n, p := 500, 0.02
	g := GNP(n, p, false, 11)
	want := p * float64(n) * float64(n-1) / 2
	got := float64(g.NumEdges())
	if math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Errorf("G(n,p) edges = %g, want ~%g", got, want)
	}
	dg := GNP(n, p, true, 11)
	wantD := p * float64(n) * float64(n-1)
	gotD := float64(dg.NumEdges())
	if math.Abs(gotD-wantD) > 5*math.Sqrt(wantD) {
		t.Errorf("directed G(n,p) arcs = %g, want ~%g", gotD, wantD)
	}
}

func TestGNPDeterministic(t *testing.T) {
	a := GNP(100, 0.05, false, 42)
	b := GNP(100, 0.05, false, 42)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	c := GNP(100, 0.05, false, 43)
	if a.NumEdges() == c.NumEdges() {
		// Not impossible, but combined with identical structure it would be
		// suspicious; just check some neighborhood differs.
		same := true
		for v := int32(0); v < 100 && same; v++ {
			an, _ := a.Neighbors(v)
			cn, _ := c.Neighbors(v)
			if len(an) != len(cn) {
				same = false
			}
		}
		if same {
			t.Error("different seeds produced identical graphs")
		}
	}
}

func TestGNPExtremes(t *testing.T) {
	if g := GNP(50, 0, false, 1); g.NumEdges() != 0 {
		t.Error("p=0 should give empty graph")
	}
	if g := GNP(20, 1, false, 1); g.NumEdges() != 190 {
		t.Errorf("p=1 should give complete graph, got %d edges", g.NumEdges())
	}
}

func TestPairFromIndex(t *testing.T) {
	n := 5
	idx := int64(0)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			gu, gv := pairFromIndex(idx, n)
			if int(gu) != u || int(gv) != v {
				t.Fatalf("pairFromIndex(%d) = (%d,%d), want (%d,%d)", idx, gu, gv, u, v)
			}
			idx++
		}
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g := PreferentialAttachment(1000, 3, 5)
	if g.NumNodes() != 1000 {
		t.Fatal("wrong node count")
	}
	if _, c := ConnectedComponents(g); c != 1 {
		t.Fatal("BA graph not connected")
	}
	// Expected edges: clique(4)=6 + 3*(1000-4).
	want := 6 + 3*996
	if g.NumEdges() != want {
		t.Errorf("BA edges = %d, want %d", g.NumEdges(), want)
	}
	// Degree skew: max degree should far exceed the mean (scale-free-ish).
	maxDeg, sum := 0, 0
	for v := int32(0); v < 1000; v++ {
		d := outDegree(g, v)
		sum += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(sum) / 1000
	if float64(maxDeg) < 5*mean {
		t.Errorf("max degree %d not much larger than mean %g; not preferential", maxDeg, mean)
	}
}

func TestPreferentialAttachmentSmall(t *testing.T) {
	g := PreferentialAttachment(3, 5, 1)
	// n < m+1 collapses to a clique over n nodes.
	if g.NumEdges() != 3 {
		t.Errorf("tiny BA edges = %d, want 3", g.NumEdges())
	}
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(400, 4, 0.1, 9)
	if g.NumNodes() != 400 {
		t.Fatal("wrong node count")
	}
	if _, c := ConnectedComponents(g); c != 1 {
		t.Error("WS graph disconnected (possible but should be rare at beta=0.1)")
	}
	// Edge count close to n*k/2 (rewiring keeps or drops a few).
	if e := g.NumEdges(); e < 700 || e > 800 {
		t.Errorf("WS edges = %d, want ~800", e)
	}
	// beta=0 gives the exact ring lattice.
	ring := WattsStrogatz(50, 4, 0, 1)
	if ring.NumEdges() != 100 {
		t.Errorf("ring lattice edges = %d, want 100", ring.NumEdges())
	}
}

func TestWithRandomWeights(t *testing.T) {
	g := WithRandomWeights(Path(50), 1, 3, 4)
	if !g.Weighted() {
		t.Fatal("not weighted")
	}
	g.ForEachArc(func(u, v int32, w float64) {
		if w < 1 || w >= 3 {
			t.Errorf("weight %g outside [1,3)", w)
		}
	})
	// Symmetric weights on the two arcs of an undirected edge.
	ns, ws := g.Neighbors(10)
	for i, v := range ns {
		back, bw := g.Neighbors(v)
		found := false
		for j, u := range back {
			if u == 10 && bw[j] == ws[i] {
				found = true
			}
		}
		if !found {
			t.Errorf("asymmetric undirected weight on edge (10,%d)", v)
		}
	}
}

func TestWithRandomWeightsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid range did not panic")
		}
	}()
	WithRandomWeights(Path(3), 0, 1, 1)
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := GNP(60, 0.08, false, 2)
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(strings.NewReader(sb.String()), false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d/%d nodes, %d/%d edges",
			g2.NumNodes(), g.NumNodes(), g2.NumEdges(), g.NumEdges())
	}
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		a, _ := g.Neighbors(v)
		b, _ := g2.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("degree mismatch at %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("adjacency mismatch at %d", v)
			}
		}
	}
}

func TestEdgeListWeightedRoundTrip(t *testing.T) {
	g := WithRandomWeights(Grid(4, 4), 1, 2, 3)
	var sb strings.Builder
	if err := WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(strings.NewReader(sb.String()), false)
	if err != nil {
		t.Fatal(err)
	}
	d1 := Dijkstra(g, 0)
	d2 := Dijkstra(g2, 0)
	for v := range d1 {
		if math.Abs(d1[v]-d2[v]) > 1e-9 {
			t.Fatalf("distance mismatch after round trip at %d: %g vs %g", v, d1[v], d2[v])
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0 1 2 3",
		"a 1",
		"0 b",
		"0 1 -2",
		"-1 0",
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c), false); err == nil {
			t.Errorf("input %q did not error", c)
		}
	}
}

// A length must be positive and finite: every spelling ParseFloat takes
// for NaN or an infinity is refused, naming the line.
func TestReadEdgeListRefusesNonFiniteLengths(t *testing.T) {
	for _, w := range []string{"NaN", "nan", "+Inf", "inf", "Infinity", "+infinity", "-Inf"} {
		_, err := ReadEdgeList(strings.NewReader("0 1 2\n1 2 "+w+"\n"), false)
		if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), w) {
			t.Errorf("length %q: got %v, want a refusal naming line 2 and the length", w, err)
		}
	}
}

func TestReadEdgeListCommentsAndBlank(t *testing.T) {
	in := "# comment\n\n% other comment\n0 1\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Errorf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
}

// ReadEdgeList refuses a node count above max(2^20, 64 × edge lines)
// before allocating anything node-sized, naming the ID, the edge count
// and the limit; the largest count at the boundary still parses, in both
// regimes of the bound.
func TestReadEdgeListNodeLimit(t *testing.T) {
	_, err := ReadEdgeList(strings.NewReader("2000000010 0\n"), false)
	if err == nil {
		t.Fatal("a 2·10⁹-node edge list of one line was accepted")
	}
	for _, want := range []string{"node ID 2000000010", "1 edge lines", "at most 1048576", "relabel"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not mention %q", err, want)
		}
	}
	// edges lines in all: a path over the first edges-1 IDs, then 0–id.
	list := func(edges int, id int) string {
		var sb strings.Builder
		for i := 0; i < edges-1; i++ {
			fmt.Fprintf(&sb, "%d %d\n", i, i+1)
		}
		fmt.Fprintf(&sb, "0 %d\n", id)
		return sb.String()
	}
	for _, edges := range []int{1, 20000} {
		limit := max(1<<20, 64*edges)
		g, err := ReadEdgeList(strings.NewReader(list(edges, limit-1)), false)
		if err != nil {
			t.Fatalf("%d edge lines, %d nodes (the limit): %v", edges, limit, err)
		}
		if g.NumNodes() != limit || g.NumEdges() != edges {
			t.Errorf("%d edge lines at the limit: %d nodes, %d edges", edges, g.NumNodes(), g.NumEdges())
		}
		if _, err := ReadEdgeList(strings.NewReader(list(edges, limit)), false); err == nil {
			t.Errorf("%d edge lines, %d nodes (one past the limit) accepted", edges, limit+1)
		}
	}
	// The benchmark's graph, PA(10000, 5), round-trips unchanged.
	pa := PreferentialAttachment(10000, 5, 1)
	var sb strings.Builder
	if err := WriteEdgeList(&sb, pa); err != nil {
		t.Fatal(err)
	}
	g, err := ReadEdgeList(strings.NewReader(sb.String()), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != pa.NumNodes() || g.NumEdges() != pa.NumEdges() {
		t.Errorf("PA(10000, 5): %d nodes, %d edges read back from %d, %d", g.NumNodes(), g.NumEdges(), pa.NumNodes(), pa.NumEdges())
	}
}
