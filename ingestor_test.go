package adsketch_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"adsketch"
	"adsketch/lab"
)

// graphEdges extracts a graph's logical edge stream (one event per edge,
// u <= v for undirected graphs, matching WriteEdgeList's dedup).
func graphEdges(g *adsketch.Graph) []adsketch.Edge {
	var out []adsketch.Edge
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
		e := adsketch.Edge{U: u, V: v}
		if g.Weighted() {
			e.W = w
		}
		out = append(out, e)
	})
	return out
}

func serializeSet(t *testing.T, set adsketch.SketchSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := adsketch.WriteSketchSetV3(&buf, set); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIngestorFreezeMatchesRebuild is the acceptance-criteria parity test
// at the public API: a warm-started ingestor replaying the tail of an
// edge stream freezes to the byte-identical set a full Build of the final
// graph produces.
func TestIngestorFreezeMatchesRebuild(t *testing.T) {
	g := adsketch.WattsStrogatz(150, 6, 0.1, 3)
	edges := graphEdges(g)
	half := len(edges) / 2

	b := adsketch.NewGraphBuilder(g.NumNodes(), false)
	for _, e := range edges[:half] {
		b.AddEdge(e.U, e.V)
	}
	baseGraph := b.Build()
	base, err := adsketch.Build(baseGraph, adsketch.WithK(8), adsketch.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	ing, err := adsketch.NewIngestor(baseGraph, base)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ing.InsertBatch(edges[half:]); err != nil || n != len(edges)-half {
		t.Fatalf("InsertBatch: n=%d err=%v", n, err)
	}
	res, err := ing.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	full, err := adsketch.Build(g, adsketch.WithK(8), adsketch.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serializeSet(t, res.Set), serializeSet(t, full)) {
		t.Fatal("frozen set differs from full rebuild")
	}
	if res.Nodes != g.NumNodes() || res.Entries != full.TotalEntries() {
		t.Fatalf("FreezeResult sizes %d/%d, want %d/%d", res.Nodes, res.Entries, g.NumNodes(), full.TotalEntries())
	}
	st := ing.Stats()
	if st.Maintainer.Edges != int64(len(edges)-half) || st.PendingEdges != 0 || st.Freezes != 1 {
		t.Fatalf("stats after freeze: %+v", st)
	}
}

// TestIngestorPublishesThroughCatalog drives the full publish path: edge
// batches trigger automatic freezes that hot-swap new catalog versions,
// and queries keep answering from published versions only.
func TestIngestorPublishesThroughCatalog(t *testing.T) {
	cat, err := adsketch.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	ing, err := adsketch.NewEmptyIngestor(false, 8, 7,
		adsketch.WithPublish(cat, "live"),
		adsketch.WithFreezeEvery(16))
	if err != nil {
		t.Fatal(err)
	}
	src, err := adsketch.NewRandomEdgeSource(200, 100, false, 5)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ing.Replay(src); err != nil || n != 100 {
		t.Fatalf("Replay: n=%d err=%v", n, err)
	}
	st := ing.Stats()
	if st.Freezes != 6 { // 100 edges / freeze-every 16
		t.Fatalf("Freezes = %d, want 6", st.Freezes)
	}
	if st.LastVersion != 6 || st.PendingEdges != 100-6*16 {
		t.Fatalf("stats: %+v", st)
	}
	if st.PublishLagSeconds < 0 {
		t.Fatalf("PublishLagSeconds = %v after publishing", st.PublishLagSeconds)
	}
	resp, err := cat.Do(context.Background(), adsketch.Request{
		Dataset:      "live",
		Neighborhood: &adsketch.NeighborhoodQuery{Unbounded: true, Nodes: []int32{0}},
	})
	if err != nil || resp.Error != "" {
		t.Fatalf("query on published dataset: %v %q", err, resp.Error)
	}
	// The published version must equal a full rebuild of the ingested
	// prefix that was frozen (96 edges).
	res, err := ing.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 7 {
		t.Fatalf("explicit freeze published version %d, want 7", res.Version)
	}
	var edges []adsketch.Edge
	src2, _ := adsketch.NewRandomEdgeSource(200, 100, false, 5)
	for {
		e, ok := src2.Next()
		if !ok {
			break
		}
		edges = append(edges, e)
	}
	maxID := int32(-1)
	for _, e := range edges {
		if e.U > maxID {
			maxID = e.U
		}
		if e.V > maxID {
			maxID = e.V
		}
	}
	b := adsketch.NewGraphBuilder(int(maxID)+1, false)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	full, err := adsketch.Build(b.Build(), adsketch.WithK(8), adsketch.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serializeSet(t, res.Set), serializeSet(t, full)) {
		t.Fatal("published set differs from full rebuild of the ingested stream")
	}
}

// TestIngestorPublishDir persists each frozen version as a v3 file and
// serves it (optionally mmapped) from the catalog.
func TestIngestorPublishDir(t *testing.T) {
	for _, mmap := range []bool{false, true} {
		cat, err := adsketch.NewCatalog()
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		opts := []adsketch.IngestorOption{
			adsketch.WithPublish(cat, "filed"),
			adsketch.WithPublishDir(dir),
		}
		if mmap {
			opts = append(opts, adsketch.WithPublishMmap())
		}
		ing, err := adsketch.NewEmptyIngestor(false, 4, 9, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i := int32(0); i < 20; i++ {
			if err := ing.Insert(i, (i+1)%20); err != nil {
				t.Fatal(err)
			}
		}
		res, err := ing.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		if res.Path == "" {
			t.Fatal("FreezeResult.Path empty with WithPublishDir")
		}
		if _, err := os.Stat(res.Path); err != nil {
			t.Fatalf("published file missing: %v", err)
		}
		sf, err := adsketch.OpenSketchFile(res.Path)
		if err != nil {
			t.Fatalf("published file unreadable: %v", err)
		}
		fset := sf.Set()
		if fset == nil {
			t.Fatal("published file holds a partition, want a whole set")
		}
		if !bytes.Equal(serializeSet(t, fset), serializeSet(t, res.Set)) {
			t.Fatal("published file differs from the frozen set")
		}
		sf.Close()
		resp, err := cat.Do(context.Background(), adsketch.Request{
			Dataset:      "filed",
			Neighborhood: &adsketch.NeighborhoodQuery{Unbounded: true, Nodes: []int32{0}},
		})
		if err != nil || resp.Error != "" {
			t.Fatalf("query on file-published dataset (mmap=%v): %v %q", mmap, err, resp.Error)
		}
		for _, ds := range cat.Stats().Datasets {
			if ds.Name == "filed" && ds.Mmap != mmap {
				t.Fatalf("dataset mmap=%v, want %v", ds.Mmap, mmap)
			}
		}
		cat.Close()
	}
}

// TestIngestorPublishReplacesFile: a restarted ingestor numbers its
// versions from 1 again, so it publishes over the path of a file another
// process may still hold (or map).  The publish must replace that file,
// not truncate it: the holder keeps the old inode and bytes, the path
// names a new inode, and no temporary file is left beside it.
func TestIngestorPublishReplacesFile(t *testing.T) {
	dir := t.TempDir()
	publish := func(seed uint64) string {
		cat, err := adsketch.NewCatalog()
		if err != nil {
			t.Fatal(err)
		}
		defer cat.Close()
		ing, err := adsketch.NewEmptyIngestor(false, 4, seed, adsketch.WithPublish(cat, "live"), adsketch.WithPublishDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		for i := int32(0); i < 20; i++ {
			if err := ing.Insert(i, (i+1)%20); err != nil {
				t.Fatal(err)
			}
		}
		res, err := ing.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		return res.Path
	}
	path := publish(9)
	held, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	before, err := held.Stat()
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if again := publish(10); again != path {
		t.Fatalf("the restarted ingestor published %s, want %s again", again, path)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(before, after) {
		t.Fatal("the publish rewrote the held file in place; want a new file renamed over the path")
	}
	kept := make([]byte, len(old)+1)
	if n, err := held.ReadAt(kept, 0); n != len(old) || !bytes.Equal(kept[:n], old) {
		t.Fatalf("the held file reads %d bytes (%v), want its own %d", n, err, len(old))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("temporary file %s left in the publish directory", e.Name())
		}
	}
}

// TestIngestorReplayDeterminism: the same seeded stream replayed into two
// ingestors freezes to identical bytes; a different seed does not.
func TestIngestorReplayDeterminism(t *testing.T) {
	freeze := func(seed uint64) []byte {
		ing, err := adsketch.NewEmptyIngestor(false, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		src, err := adsketch.NewRandomEdgeSource(100, 300, true, seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ing.Replay(src); err != nil {
			t.Fatal(err)
		}
		res, err := ing.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		return serializeSet(t, res.Set)
	}
	a, b, c := freeze(11), freeze(11), freeze(12)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different frozen sets")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical frozen sets")
	}
}

// Only W == 0 stands for a unit edge: a negative or infinite length is
// refused, names the edge, and leaves the ingestor as it was, whether it
// comes alone or in a batch.
func TestIngestorRefusesBadLengths(t *testing.T) {
	ing, err := adsketch.NewEmptyIngestor(false, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Insert(2, 3); err != nil {
		t.Fatal(err)
	}
	before := ing.Stats()
	for _, w := range []float64{-3, math.Inf(-1), math.Inf(1), math.NaN()} {
		err := ing.InsertWeighted(0, 1, w)
		if err == nil || !strings.Contains(err.Error(), "(0,1)") {
			t.Errorf("InsertWeighted(0, 1, %g) = %v, want an error naming edge (0,1)", w, err)
		}
		if st := ing.Stats(); st != before {
			t.Errorf("InsertWeighted(0, 1, %g) changed the stats: %+v, want %+v", w, st, before)
		}
	}
	n, err := ing.InsertBatch([]adsketch.Edge{{U: 0, V: 1}, {U: 1, V: 2, W: 2.5}, {U: 2, V: 4, W: -3}, {U: 4, V: 5}})
	if n != 2 || err == nil || !strings.Contains(err.Error(), "(2,4)") {
		t.Errorf("InsertBatch with a bad third edge = (%d, %v), want (2, an error naming edge (2,4))", n, err)
	}
	if st := ing.Stats(); st.PendingEdges != before.PendingEdges+2 || st.Maintainer.Edges != before.Maintainer.Edges+2 {
		t.Errorf("after the batch: %d pending, %d edges; want %d and %d",
			st.PendingEdges, st.Maintainer.Edges, before.PendingEdges+2, before.Maintainer.Edges+2)
	}
}

func TestIngestorOptionErrors(t *testing.T) {
	cat, err := adsketch.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	bad := [][]adsketch.IngestorOption{
		{adsketch.WithFreezeEvery(-1)},
		{adsketch.WithPublish(nil, "x")},
		{adsketch.WithPublish(cat, "bad name")},
		{adsketch.WithPublishDir("")},
		{adsketch.WithPublishDir(t.TempDir())},                       // dir without publish
		{adsketch.WithPublish(cat, "x"), adsketch.WithPublishMmap()}, // mmap without dir
		{nil},
	}
	for i, opts := range bad {
		if _, err := adsketch.NewEmptyIngestor(false, 4, 1, opts...); err == nil {
			t.Fatalf("option set %d accepted", i)
		}
	}
	// Non-bottom-k sets are rejected.
	g := adsketch.Cycle(10)
	beta := make([]float64, 10)
	for i := range beta {
		beta[i] = 1
	}
	wset, err := adsketch.Build(g, adsketch.WithK(4), adsketch.WithSeed(1),
		adsketch.WithNodeWeights(beta))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adsketch.NewIngestor(g, wset); err == nil {
		t.Fatal("NewIngestor accepted a weighted set")
	}
	// Bottom-k at full precision, but not uniform ranks.
	aset, err := lab.BuildApprox(g, 4, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adsketch.NewIngestor(g, aset); !errors.Is(err, adsketch.ErrIncompatibleOptions) {
		t.Fatalf("NewIngestor over an approximate set: %v, want ErrIncompatibleOptions", err)
	}
}
