// Webtoolkit: the cross-sketch toolkit on a directed web-style graph —
// everything that sketch coordination buys beyond per-node statistics:
//
//   - forward and backward sketches ("whom can I reach" / "who reaches me");
//   - persistence: build once, serialize, reload, query;
//   - neighborhood similarity between two pages;
//   - 2-hop-cover-style distance upper bounds from forward+backward sketches;
//   - greedy influence-seed selection.
package main

import (
	"bytes"
	"fmt"

	"adsketch"
	"adsketch/internal/graph"
	"adsketch/lab"
)

func main() {
	// A directed "web": preferential attachment with every edge directed
	// both ways at random (keep it simple: use GNP directed).
	g := adsketch.GNP(4000, 0.0015, true, 21)
	fmt.Printf("web graph: %d pages, %d links\n\n", g.NumNodes(), g.NumEdges())

	// Forward and backward sketches share one option set; the same seed
	// keeps them coordinated.
	opts := []adsketch.Option{adsketch.WithK(16), adsketch.WithSeed(9)}
	// The coordinated cross-sketch toolkit (serialization, Jaccard,
	// distance bounds, influence) takes the uniform-rank sets Build returns.
	fwd, err := adsketch.Build(g, opts...)
	if err != nil {
		panic(err)
	}
	bwd, err := adsketch.Build(g.Transpose(), opts...)
	if err != nil {
		panic(err)
	}

	// Persistence round trip: serialize the forward set and reload it.
	// WriteTo writes the one sketch file format, shared by every set
	// kind — the file cmd/adsserver serves, mmap'd or read in — and
	// ReadSketchSet reads it back, validating every sketch.
	var buf bytes.Buffer
	size, err := fwd.WriteTo(&buf)
	if err != nil {
		panic(err)
	}
	reloaded, err := adsketch.ReadSketchSet(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Printf("persistence: %d sketches serialized to %d bytes (%.1f B/node, format v%d), reloaded OK\n\n",
		fwd.NumNodes(), size, float64(size)/float64(fwd.NumNodes()), adsketch.SketchFormatVersion)

	// Forward vs backward reach of a few pages.
	fmt.Println("reach (forward = can visit, backward = can be reached from):")
	cf := lab.NewCentrality(reloaded)
	cb := lab.NewCentrality(bwd)
	for _, v := range []int32{0, 100, 2000} {
		fmt.Printf("  page %-5d out-reach %7.0f   in-reach %7.0f\n",
			v, cf.NeighborhoodSize(v, 1e18), cb.NeighborhoodSize(v, 1e18))
	}

	// Distance upper bounds via shared beacons: forward sketch of u and
	// backward sketch of w bound d(u,w).
	fmt.Println("\ndistance upper bounds vs exact (forward ADS(u) x backward ADS(w)):")
	for _, pair := range [][2]int32{{0, 57}, {10, 2222}, {5, 3999}} {
		u, w := pair[0], pair[1]
		bound := adsketch.DistanceUpperBound(reloaded.BottomK(u), bwd.BottomK(w))
		exact := graph.Dijkstra(g, u)[w]
		fmt.Printf("  d(%d -> %d): bound %4.0f   exact %4.0f\n", u, w, bound, exact)
	}

	// Neighborhood similarity between two pages at radius 2.
	fmt.Println("\nout-neighborhood similarity (radius 2):")
	for _, pair := range [][2]int32{{0, 1}, {0, 3000}} {
		j := adsketch.NeighborhoodJaccard(reloaded.BottomK(pair[0]), 2, reloaded.BottomK(pair[1]), 2)
		fmt.Printf("  J(N_2(%d), N_2(%d)) = %.3f\n", pair[0], pair[1], j)
	}

	// Influence: pick 3 pages maximizing 2-step reach of the union.
	seeds, cov := adsketch.GreedyInfluenceSeeds(reloaded, nil, 3, 2)
	fmt.Printf("\ngreedy 3-seed set for 2-step influence: %v, estimated coverage %.0f pages\n",
		seeds, cov)
}
