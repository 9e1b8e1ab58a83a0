package adsketch_test

// Streaming-ingest benchmarks: BenchmarkIngestInsert prices one edge insertion into a warm maintainer
// (candidate propagation, amortized over a long random stream),
// BenchmarkIngestInsertBatch the batched variant, and
// BenchmarkIngestFreezePublish a full freeze-and-publish cycle (freeze
// base + deltas into a columnar frame, hot-swap it into a catalog).

import (
	"testing"

	"adsketch"
)

// benchIngestEdges drains a deterministic random stream once.
func benchIngestEdges(b *testing.B, nodes, count int) []adsketch.Edge {
	b.Helper()
	src, err := adsketch.NewRandomEdgeSource(nodes, count, false, 7)
	if err != nil {
		b.Fatal(err)
	}
	edges := make([]adsketch.Edge, 0, count)
	for {
		e, ok := src.Next()
		if !ok {
			return edges
		}
		edges = append(edges, e)
	}
}

// benchIngestor returns an ingestor warmed with the given edge prefix.
func benchIngestor(b *testing.B, edges []adsketch.Edge, warm int, opts ...adsketch.IngestorOption) *adsketch.Ingestor {
	b.Helper()
	ing, err := adsketch.NewEmptyIngestor(false, 16, 42, opts...)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ing.InsertBatch(edges[:warm]); err != nil {
		b.Fatal(err)
	}
	return ing
}

// BenchmarkIngestInsert: one edge insertion into a maintainer warmed
// with 4000 edges over 2000 nodes — steady-state propagation cost.
func BenchmarkIngestInsert(b *testing.B) {
	edges := benchIngestEdges(b, 2000, 4000)
	ing := benchIngestor(b, edges, len(edges))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		if err := ing.InsertWeighted(e.U, e.V, e.W); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestInsertBatch: a 256-edge batch per op on the same warm
// maintainer — the serving tier's POST /v1/ingest shape.
func BenchmarkIngestInsertBatch(b *testing.B) {
	edges := benchIngestEdges(b, 2000, 4096)
	ing := benchIngestor(b, edges, len(edges))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := (i * 256) % (len(edges) - 256)
		if _, err := ing.InsertBatch(edges[at : at+256]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestFreezePublish: ingest a small delta, then freeze the
// base + deltas into a new columnar frame and hot-swap it into a catalog
// — the full publish cycle of one version.
func BenchmarkIngestFreezePublish(b *testing.B) {
	cat, err := adsketch.NewCatalog()
	if err != nil {
		b.Fatal(err)
	}
	defer cat.Close()
	edges := benchIngestEdges(b, 2000, 4096)
	ing := benchIngestor(b, edges, 4000, adsketch.WithPublish(cat, "bench"))
	if _, err := ing.Freeze(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[4000+i%96]
		if err := ing.InsertWeighted(e.U, e.V, e.W); err != nil {
			b.Fatal(err)
		}
		if _, err := ing.Freeze(); err != nil {
			b.Fatal(err)
		}
	}
}
