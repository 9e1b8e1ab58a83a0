package adsketch_test

// Catalog serving-path benchmarks: BenchmarkCatalogDo against
// BenchmarkCatalogDoDirect
// measures the routing overhead of the dataset layer (pin a ref-counted
// version, dispatch, unpin) over a bare Engine.Do — measured at
// ~250–300ns vs ~125–180ns per warm closeness request on a 2-vCPU VM
// (≈100–150ns routing, the same 2 allocs), so single-iteration readings
// are first-request warmup artifacts, not steady-state routing cost;
// read these from a multi-iteration run.
// BenchmarkCatalogDoBatch covers the DoBatch single-dataset fast path
// (the pin lives in locals; no per-batch map), and BenchmarkCatalogSwap
// prices a hot swap (build + publish + retire of an Engine over a
// prebuilt set).

import (
	"context"
	"sync"
	"testing"

	"adsketch"
)

var benchCatalogOnce struct {
	sync.Once
	setA, setB adsketch.SketchSet
	eng        *adsketch.Engine
	cat        *adsketch.Catalog
}

func benchCatalog(b *testing.B) (*adsketch.Catalog, *adsketch.Engine) {
	b.Helper()
	benchCatalogOnce.Do(func() {
		g := adsketch.PreferentialAttachment(5000, 4, 3)
		var err error
		if benchCatalogOnce.setA, err = adsketch.Build(g, adsketch.WithK(16), adsketch.WithSeed(7)); err != nil {
			b.Fatal(err)
		}
		if benchCatalogOnce.setB, err = adsketch.Build(g, adsketch.WithK(16), adsketch.WithSeed(8)); err != nil {
			b.Fatal(err)
		}
		if benchCatalogOnce.eng, err = adsketch.NewEngine(benchCatalogOnce.setA); err != nil {
			b.Fatal(err)
		}
		if benchCatalogOnce.cat, err = adsketch.NewCatalog(); err != nil {
			b.Fatal(err)
		}
		if err = benchCatalogOnce.cat.Attach(adsketch.DefaultDataset, adsketch.SetSource(benchCatalogOnce.setA)); err != nil {
			b.Fatal(err)
		}
	})
	return benchCatalogOnce.cat, benchCatalogOnce.eng
}

// BenchmarkCatalogDo: one warm-cache closeness request routed through
// the catalog (resolve name, pin version, Engine.Do, release).
func BenchmarkCatalogDo(b *testing.B) {
	cat, _ := benchCatalog(b)
	ctx := context.Background()
	req := adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{17}}}
	if _, err := cat.Do(ctx, req); err != nil { // warm the index cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cat.Do(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatalogDoDirect: the same request on the bare Engine — the
// baseline the catalog's routing overhead is measured against.
func BenchmarkCatalogDoDirect(b *testing.B) {
	_, eng := benchCatalog(b)
	ctx := context.Background()
	req := adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{17}}}
	if _, err := eng.Do(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Do(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatalogDoBatch: an 8-request single-dataset batch through
// DoBatch — the common serving shape, answered from one pinned version
// via the local fast path (no per-batch pin map).
func BenchmarkCatalogDoBatch(b *testing.B) {
	cat, _ := benchCatalog(b)
	ctx := context.Background()
	reqs := make([]adsketch.Request, 8)
	for i := range reqs {
		reqs[i] = adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{int32(i)}}}
	}
	if _, err := cat.DoBatch(ctx, reqs); err != nil { // warm the index cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cat.DoBatch(ctx, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCatalogSwap: atomically publishing a new version over a
// prebuilt set (Engine construction + publish + retire of the idle old
// version) — the steady-state cost of a rebuild pipeline pushing
// refreshed sketches into a serving process.
func BenchmarkCatalogSwap(b *testing.B) {
	cat, _ := benchCatalog(b)
	sources := []adsketch.Source{
		adsketch.SetSource(benchCatalogOnce.setB),
		adsketch.SetSource(benchCatalogOnce.setA),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cat.Swap(adsketch.DefaultDataset, sources[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}
