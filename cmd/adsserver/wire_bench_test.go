package main

// Transport benchmarks over real HTTP loopback: what one coordinator
// hop costs, and what the batched frame saves a scatter over
// per-request fan-out.

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"

	"adsketch"
)

var benchTopoOnce struct {
	sync.Once
	err     error
	workers []*httptest.Server // one per partition
	whole   *httptest.Server   // unsplit single server
}

// benchTopology builds a 2000-node set once and serves it as a single
// worker plus a 2-partition split, the topology every transport
// benchmark dials.  Servers leak until the process exits — fine for a
// benchmark binary.
func benchTopology(b *testing.B) (whole *httptest.Server, workers []*httptest.Server) {
	b.Helper()
	benchTopoOnce.Do(func() {
		g := adsketch.PreferentialAttachment(2000, 3, 7)
		set, err := adsketch.Build(g, adsketch.WithK(8), adsketch.WithSeed(42))
		if err != nil {
			benchTopoOnce.err = err
			return
		}
		serve := func(be adsketch.ShardBackend) (*httptest.Server, error) {
			cat, err := adsketch.NewCatalog()
			if err != nil {
				return nil, err
			}
			if err := cat.Attach(adsketch.DefaultDataset, adsketch.BackendSource(be)); err != nil {
				return nil, err
			}
			return httptest.NewServer(newServer(cat).mux()), nil
		}
		eng, err := adsketch.NewEngine(set)
		if err != nil {
			benchTopoOnce.err = err
			return
		}
		if benchTopoOnce.whole, err = serve(eng); err != nil {
			benchTopoOnce.err = err
			return
		}
		parts, err := adsketch.SplitSketchSet(set, 2)
		if err != nil {
			benchTopoOnce.err = err
			return
		}
		for _, p := range parts {
			se, err := adsketch.NewEngine(p)
			if err != nil {
				benchTopoOnce.err = err
				return
			}
			ts, err := serve(se)
			if err != nil {
				benchTopoOnce.err = err
				return
			}
			benchTopoOnce.workers = append(benchTopoOnce.workers, ts)
		}
	})
	if benchTopoOnce.err != nil {
		b.Fatal(benchTopoOnce.err)
	}
	return benchTopoOnce.whole, benchTopoOnce.workers
}

// BenchmarkHTTPShardRoundtrip: one coordinator-to-worker hop over binary
// frames, the only encoding the hop speaks.
func BenchmarkHTTPShardRoundtrip(b *testing.B) {
	whole, _ := benchTopology(b)
	req := adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0, 17, 123, 999}}}
	ctx := context.Background()
	b.Run("binary", func(b *testing.B) {
		s, err := dialShard(whole.URL, clusterDefaults())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Do(ctx, req); err != nil { // warm the connection
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Do(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCoordinatorScatterFrame: an 8-query batch through a real
// 2-worker coordinator — per-request fan-out vs the single batched
// frame per shard that DoBatch sends, and a batch of 8 cross-shard
// jaccard queries, whose sketch fetches ride the same frames.
func BenchmarkCoordinatorScatterFrame(b *testing.B) {
	_, workers := benchTopology(b)
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.URL
	}
	coordBE, _, err := dialWorkers(urls, clusterDefaults())
	if err != nil {
		b.Fatal(err)
	}
	var reqs []adsketch.Request
	for i := 0; i < 8; i++ {
		reqs = append(reqs, adsketch.Request{
			Closeness: &adsketch.ClosenessQuery{Nodes: []int32{int32(i * 250), int32(i*250 + 1)}},
		})
	}
	ctx := context.Background()
	if _, err := coordBE.DoBatch(ctx, reqs); err != nil { // warm connections
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, req := range reqs {
				if _, err := coordBE.Do(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("framed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := coordBE.DoBatch(ctx, reqs); err != nil {
				b.Fatal(err)
			}
		}
	})
	var pairs []adsketch.Request
	for i := 0; i < 8; i++ {
		pairs = append(pairs, adsketch.Request{
			Jaccard: &adsketch.JaccardQuery{A: int32(i * 125), RadiusA: 2, B: int32(1999 - i*125), RadiusB: 2},
		})
	}
	b.Run("pairwise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := coordBE.DoBatch(ctx, pairs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
