package ingest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adsketch/internal/core"
	"adsketch/internal/graph"
)

type edge struct {
	u, v int32
	w    float64
}

// edgesOf extracts the logical edge list of a graph (one entry per edge,
// u <= v for undirected graphs, mirroring WriteEdgeList's dedup).
func edgesOf(g *graph.Graph) []edge {
	var out []edge
	selfSeen := make(map[int32]int)
	g.ForEachArc(func(u, v int32, w float64) {
		if !g.Directed() {
			if u > v {
				return
			}
			if u == v {
				selfSeen[u]++
				if selfSeen[u]%2 == 0 {
					return
				}
			}
		}
		out = append(out, edge{u, v, w})
	})
	return out
}

// buildPrefix builds the graph holding the first cnt edges over n nodes.
func buildPrefix(n int, directed, weighted bool, edges []edge, cnt int) *graph.Graph {
	b := graph.NewBuilder(n, directed)
	for _, e := range edges[:cnt] {
		if weighted {
			b.AddWeightedEdge(e.u, e.v, e.w)
		} else {
			b.AddEdge(e.u, e.v)
		}
	}
	return b.Build()
}

func mustBuild(t *testing.T, g *graph.Graph, o core.Options) *core.Set {
	t.Helper()
	s, err := core.BuildSet(g, o)
	if err != nil {
		t.Fatalf("BuildSet: %v", err)
	}
	return s
}

// checkEntriesEqual compares the maintainer's live state against a freshly
// built reference set, entry by entry.
func checkEntriesEqual(t *testing.T, m *Maintainer, ref *core.Set, step int) {
	t.Helper()
	if m.NumNodes() != ref.NumNodes() {
		t.Fatalf("step %d: maintainer has %d nodes, rebuild has %d", step, m.NumNodes(), ref.NumNodes())
	}
	for v := 0; v < ref.NumNodes(); v++ {
		got := m.Entries(int32(v))
		want := ref.BottomK(int32(v)).Entries()
		if len(got) != len(want) {
			t.Fatalf("step %d: node %d: got %d entries, want %d\ngot:  %v\nwant: %v",
				step, v, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: node %d entry %d: got %+v, want %+v", step, v, i, got[i], want[i])
			}
		}
	}
}

// serialize writes a set through the v3 codec.
func serialize(t *testing.T, s *core.Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// replayParity replays the suffix of an edge stream on a maintainer based
// at the prefix, checking full parity with a rebuild after every insert,
// and byte parity of the final Freeze.
func replayParity(t *testing.T, g *graph.Graph, weighted bool, baseCnt int, o core.Options) {
	t.Helper()
	edges := edgesOf(g)
	n := g.NumNodes()
	baseGraph := buildPrefix(n, g.Directed(), weighted, edges, baseCnt)
	base := mustBuild(t, baseGraph, o)
	m, err := New(baseGraph, base)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := baseCnt; i < len(edges); i++ {
		e := edges[i]
		if weighted {
			err = m.InsertWeighted(e.u, e.v, e.w)
		} else {
			err = m.Insert(e.u, e.v)
		}
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		ref := mustBuild(t, buildPrefix(n, g.Directed(), weighted, edges, i+1), o)
		checkEntriesEqual(t, m, ref, i+1)
	}
	frozen, err := m.Freeze()
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	full := mustBuild(t, g, o)
	if got, want := serialize(t, frozen), serialize(t, full); !bytes.Equal(got, want) {
		t.Fatalf("frozen set is not byte-identical to a full rebuild (%d vs %d bytes)", len(got), len(want))
	}
	st := m.Stats()
	if st.Edges != int64(len(edges)-baseCnt) {
		t.Fatalf("Stats.Edges = %d, want %d", st.Edges, len(edges)-baseCnt)
	}
	if st.Offers < st.Accepts {
		t.Fatalf("Stats: offers %d < accepts %d", st.Offers, st.Accepts)
	}
	if st.OverlayNodes != 0 || st.OverlayEntries != 0 {
		t.Fatalf("Stats after Freeze: overlay not cleared: %+v", st)
	}
}

func TestParityUndirectedUnweighted(t *testing.T) {
	g := graph.GNP(60, 0.06, false, 7)
	edges := edgesOf(g)
	replayParity(t, g, false, len(edges)/2, core.Options{K: 4, Seed: 42})
}

func TestParityDirected(t *testing.T) {
	g := graph.GNP(50, 0.07, true, 11)
	edges := edgesOf(g)
	replayParity(t, g, false, len(edges)/2, core.Options{K: 3, Seed: 5})
}

func TestParityWeighted(t *testing.T) {
	g := graph.WithRandomWeights(graph.GNP(40, 0.09, false, 13), 0.5, 2.5, 99)
	edges := edgesOf(g)
	replayParity(t, g, true, len(edges)/2, core.Options{K: 4, Seed: 17})
}

func TestParityWeightedDirected(t *testing.T) {
	g := graph.WithRandomWeights(graph.GNP(40, 0.09, true, 21), 0.25, 3, 31)
	edges := edgesOf(g)
	replayParity(t, g, true, len(edges)/2, core.Options{K: 2, Seed: 23})
}

func TestParityEmptyStart(t *testing.T) {
	// Every edge arrives through the maintainer; nodes spring into
	// existence as IDs appear.
	g := graph.PreferentialAttachment(80, 3, 3)
	replayParity(t, g, false, 0, core.Options{K: 4, Seed: 1})
}

func TestParityEmptyStartSmallK1(t *testing.T) {
	g := graph.Cycle(30)
	replayParity(t, g, false, 0, core.Options{K: 1, Seed: 2})
}

// TestParityOrderIndependence checks that the final frozen set does not
// depend on the edge arrival order.
func TestParityOrderIndependence(t *testing.T) {
	g := graph.GNP(40, 0.08, false, 3)
	edges := edgesOf(g)
	o := core.Options{K: 4, Seed: 9}
	empty := graph.NewBuilder(0, g.Directed()).Build()

	freezeWith := func(perm []edge) []byte {
		m, err := New(empty, mustBuild(t, empty, o))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		for _, e := range perm {
			if err := m.Insert(e.u, e.v); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
		s, err := m.Freeze()
		if err != nil {
			t.Fatalf("Freeze: %v", err)
		}
		return serialize(t, s)
	}

	forward := freezeWith(edges)
	rev := make([]edge, len(edges))
	for i, e := range edges {
		rev[len(edges)-1-i] = e
	}
	if !bytes.Equal(forward, freezeWith(rev)) {
		t.Fatal("frozen sets differ between forward and reversed edge order")
	}
}

// TestParityDifferentialReplay is the ingest slice of the construction
// oracle (core's TestPrunedDijkstraDifferential): on the same random small
// graphs — directed or not, tied lengths, disconnected, self-loops,
// duplicate edges — replaying the edges in a seeded random order onto the
// edgeless node set, with a freeze halfway so that offers scan both overlay
// lists and a frozen base's columns, ends at the bytes of a full build.
func TestParityDifferentialReplay(t *testing.T) {
	graphs := 300
	if testing.Short() {
		graphs = 40
	}
	for seed := 0; seed < graphs; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		g := graph.RandomSmall(rng)
		edges := edgesOf(g)
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		edgeless := graph.NewBuilder(g.NumNodes(), g.Directed()).Build()
		for _, k := range []int{1, 2, 5} {
			o := core.Options{K: k, Seed: uint64(seed)}
			m, err := New(edgeless, mustBuild(t, edgeless, o))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			for i, e := range edges {
				if err := m.InsertWeighted(e.u, e.v, e.w); err != nil {
					t.Fatalf("graph seed %d: insert %d: %v", seed, i, err)
				}
				if i == len(edges)/2 {
					if _, err := m.Freeze(); err != nil {
						t.Fatalf("graph seed %d: Freeze at edge %d: %v", seed, i, err)
					}
				}
			}
			frozen, err := m.Freeze()
			if err != nil {
				t.Fatalf("graph seed %d: Freeze: %v", seed, err)
			}
			if !bytes.Equal(serialize(t, frozen), serialize(t, mustBuild(t, g, o))) {
				t.Fatalf("graph seed %d (n=%d arcs=%d directed=%v weighted=%v) k=%d: replay differs from a full build",
					seed, g.NumNodes(), g.NumArcs(), g.Directed(), g.Weighted(), k)
			}
		}
	}
}

// TestRepeatedFreeze interleaves freezes with inserts: each freeze re-bases
// the maintainer and parity must survive across the boundary.
func TestRepeatedFreeze(t *testing.T) {
	g := graph.GNP(50, 0.07, false, 19)
	edges := edgesOf(g)
	o := core.Options{K: 4, Seed: 8}
	empty := graph.NewBuilder(0, false).Build()
	m, err := New(empty, mustBuild(t, empty, o))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i, e := range edges {
		if err := m.Insert(e.u, e.v); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if i%17 == 0 {
			if _, err := m.Freeze(); err != nil {
				t.Fatalf("Freeze at %d: %v", i, err)
			}
		}
	}
	frozen, err := m.Freeze()
	if err != nil {
		t.Fatalf("final Freeze: %v", err)
	}
	n := m.NumNodes()
	full := mustBuild(t, buildPrefix(n, false, false, edges, len(edges)), o)
	if !bytes.Equal(serialize(t, frozen), serialize(t, full)) {
		t.Fatal("frozen set after interleaved freezes differs from full rebuild")
	}
}

// TestFreezeAcrossIDWidths: a frozen set stores node IDs in the bits its
// node count needs, so a stream that grows the graph one node at a time and
// freezes after every edge re-packs the base each time the count crosses a
// power of two — and every freeze is still byte for byte the fresh build.
func TestFreezeAcrossIDWidths(t *testing.T) {
	o := core.Options{K: 4, Seed: 8}
	empty := graph.NewBuilder(0, false).Build()
	m, err := New(empty, mustBuild(t, empty, o))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var edges []edge
	for v := int32(1); v <= 70; v++ {
		edges = append(edges, edge{u: v / 3, v: v}) // a ternary tree: node v arrives with edge v
		if err := m.Insert(v/3, v); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		frozen, err := m.Freeze()
		if err != nil {
			t.Fatalf("Freeze at %d nodes: %v", v+1, err)
		}
		full := mustBuild(t, buildPrefix(int(v)+1, false, false, edges, len(edges)), o)
		if !bytes.Equal(serialize(t, frozen), serialize(t, full)) {
			t.Fatalf("the freeze at %d nodes differs from a full rebuild", v+1)
		}
	}
}

func TestNewValidation(t *testing.T) {
	g := graph.Cycle(10)
	if _, err := New(nil, nil); err == nil {
		t.Fatal("New(nil, nil) succeeded")
	}
	weighted, err := core.BuildWeightedSet(g, 2, 1, []float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(g, weighted); err == nil {
		t.Fatal("New accepted a weighted set")
	}
	baseB := mustBuild(t, g, core.Options{K: 2, Seed: 1, BaseB: 2})
	if _, err := New(g, baseB); err == nil {
		t.Fatal("New accepted a base-b set")
	}
	smaller := mustBuild(t, graph.Cycle(9), core.Options{K: 2, Seed: 1})
	if _, err := New(g, smaller); err == nil {
		t.Fatal("New accepted a node-count mismatch")
	}
	// A v3 file's entries are trusted on open; the maintainer indexes its
	// rank table by them, so it checks.  Node 0's second entry, renamed:
	var file bytes.Buffer
	if _, err := mustBuild(t, g, core.Options{K: 2, Seed: 1}).WriteTo(&file); err != nil {
		t.Fatal(err)
	}
	// After the 88-byte header, 11 offsets in the bits of the entry count.
	entries := mustBuild(t, g, core.Options{K: 2, Seed: 1}).TotalEntries()
	header, offsets := 88, 8*((11*bits.Len(uint(entries))+63)/64)
	binary.LittleEndian.PutUint32(file.Bytes()[header+offsets+4:], 1000)
	path := filepath.Join(t.TempDir(), "foreign.ads")
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	foreign, err := core.OpenSketchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer foreign.Close()
	if _, err := New(g, foreign.Set()); err == nil {
		t.Fatal("New accepted a base whose sketches name a node the graph lacks")
	}
}

func TestInsertValidation(t *testing.T) {
	g := graph.Cycle(5)
	m, err := New(g, mustBuild(t, g, core.Options{K: 2, Seed: 1}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.Insert(-1, 2); err == nil {
		t.Fatal("Insert(-1, 2) succeeded")
	}
	if err := m.InsertWeighted(0, 1, 0); err == nil {
		t.Fatal("zero-weight insert succeeded")
	}
	if err := m.InsertWeighted(0, 1, -3); err == nil {
		t.Fatal("negative-weight insert succeeded")
	}
	before := m.Stats()
	for _, w := range []float64{math.Inf(1), math.NaN()} {
		if err := m.InsertWeighted(0, 2, w); err == nil {
			t.Fatalf("insert of length %g succeeded", w)
		}
		if st := m.Stats(); st != before {
			t.Fatalf("refused length %g changed the maintainer: %+v, was %+v", w, st, before)
		}
	}
}

// TestInsertNodeLimit: an edge naming a node past graph.NodeLimit is
// refused by name before anything grows — one hostile ID must not ask
// for per-node arrays of 2³¹ entries — and the maintainer takes the next
// edge as if the refused one never came.
func TestInsertNodeLimit(t *testing.T) {
	g := graph.NewBuilder(0, false).Build()
	m, err := New(g, mustBuild(t, g, core.Options{K: 4, Seed: 1}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, e := range []edge{{u: math.MaxInt32, v: 0}, {u: 0, v: 1 << 20}} {
		err := m.Insert(e.u, e.v)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(max(e.u, e.v))) {
			t.Fatalf("Insert(%d, %d) = %v, want a refusal naming the ID", e.u, e.v, err)
		}
		if st := m.Stats(); st.Nodes != 0 || st.Edges != 0 || st.OverlayNodes != 0 {
			t.Fatalf("refused edge changed the maintainer: %+v", st)
		}
	}
	if err := m.Insert(0, 1); err != nil {
		t.Fatalf("Insert(0, 1) after the refusals: %v", err)
	}
	if st := m.Stats(); st.Nodes != 2 || st.Edges != 1 {
		t.Fatalf("after Insert(0, 1): %+v", st)
	}
}

// TestEvictionHappens forces rank-based evictions: a hub insertion that
// brings many low-rank nodes close to everyone.
func TestEvictionHappens(t *testing.T) {
	g := graph.Path(40)
	m, err := New(g, mustBuild(t, g, core.Options{K: 2, Seed: 6}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Connect the two ends; long-range entries get displaced by closer ones.
	if err := m.Insert(0, 39); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	for i := int32(0); i < 40; i += 7 {
		if err := m.Insert(i, (i+20)%40); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if st := m.Stats(); st.Evictions == 0 {
		t.Skip("no evictions triggered by this stream (rank layout)")
	}
	n := m.NumNodes()
	edges := append(edgesOf(graph.Path(40)),
		edge{0, 39, 1}, edge{0, 20, 1}, edge{7, 27, 1}, edge{14, 34, 1},
		edge{21, 1, 1}, edge{28, 8, 1}, edge{35, 15, 1})
	full := mustBuild(t, buildPrefix(n, false, false, edges, len(edges)), core.Options{K: 2, Seed: 6})
	frozen, err := m.Freeze()
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	if !bytes.Equal(serialize(t, frozen), serialize(t, full)) {
		t.Fatal("frozen set with evictions differs from full rebuild")
	}
}

func TestMultiEdgesAndSelfLoops(t *testing.T) {
	g := graph.Cycle(12)
	o := core.Options{K: 3, Seed: 14}
	m, err := New(g, mustBuild(t, g, o))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	extra := []edge{{3, 3, 1}, {2, 7, 1}, {2, 7, 1}, {5, 5, 1}}
	for _, e := range extra {
		if err := m.Insert(e.u, e.v); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	edges := append(edgesOf(g), extra...)
	full := mustBuild(t, buildPrefix(12, false, false, edges, len(edges)), o)
	checkEntriesEqual(t, m, full, len(extra))
}
