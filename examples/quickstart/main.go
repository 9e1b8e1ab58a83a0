// Quickstart: build All-Distances Sketches for every node of a graph and
// answer neighborhood-cardinality and closeness-centrality queries from the
// sketches alone, comparing against exact traversal answers.
package main

import (
	"context"
	"fmt"

	"adsketch"
	"adsketch/lab"
)

func main() {
	// A 10,000-node preferential-attachment graph (a synthetic stand-in
	// for the social graphs the paper targets).
	const n = 10000
	g := adsketch.PreferentialAttachment(n, 5, 1)
	fmt.Printf("graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	// One near-linear pass builds coordinated bottom-k sketches for all
	// nodes (Algorithm 1, PrunedDijkstra — the defaults).
	set, err := adsketch.Build(g, adsketch.WithK(16), adsketch.WithSeed(42))
	if err != nil {
		panic(err)
	}
	fmt.Printf("sketches: k=%d, %d total entries (%.1f per node)\n\n",
		set.K(), set.TotalEntries(), float64(set.TotalEntries())/float64(n))

	// The Engine serves batch queries from cached per-node HIP indices.
	eng, err := adsketch.NewEngine(set)
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	nodes := []int32{0, 123, 4567}

	// Neighborhood cardinalities: HIP estimate vs exact BFS count, one
	// batch call per distance.
	fmt.Println("neighborhood sizes |N_d(v)| (HIP estimate vs exact):")
	for _, d := range []float64{1, 2, 3} {
		ests, err := eng.NeighborhoodSizes(ctx, d, nodes...)
		if err != nil {
			panic(err)
		}
		for i, v := range nodes {
			exact := lab.ExactNeighborhoodSize(g, v, d)
			fmt.Printf("  v=%-5d d=%g:  %8.1f  vs %6d  (%+.1f%%)\n",
				v, d, ests[i], exact, 100*(ests[i]-float64(exact))/float64(exact))
		}
	}

	// Closeness centrality: 1/Σ d(v,j), one batch call for all nodes.
	fmt.Println("\ncloseness centrality (HIP estimate vs exact):")
	closeness, err := eng.Closeness(ctx, nodes...)
	if err != nil {
		panic(err)
	}
	for i, v := range nodes {
		exact := lab.ExactCloseness(g, v)
		fmt.Printf("  v=%-5d:  %.3e  vs %.3e  (%+.1f%%)\n",
			v, closeness[i], exact, 100*(closeness[i]-exact)/exact)
	}

	// Harmonic centrality from the same cached indices — no rebuild.
	fmt.Println("\nharmonic centrality (HIP estimate vs exact):")
	harmonic, err := eng.Harmonic(ctx, nodes[:2]...)
	if err != nil {
		panic(err)
	}
	for i, v := range nodes[:2] {
		exact := lab.ExactHarmonic(g, v)
		fmt.Printf("  v=%-5d:  %8.1f  vs %8.1f  (%+.1f%%)\n",
			v, harmonic[i], exact, 100*(harmonic[i]-exact)/exact)
	}

	// Top-10 nodes by estimated closeness, scored by the worker pool.
	fmt.Println("\ntop-10 nodes by estimated closeness:")
	top, err := eng.TopCloseness(ctx, 10)
	if err != nil {
		panic(err)
	}
	for i, r := range top {
		fmt.Printf("  %2d. node %-5d score %.3e\n", i+1, r.Node, r.Score)
	}
	fmt.Printf("\n%d per-node indices now cached for repeated queries\n", eng.CacheStats().Built)
}
