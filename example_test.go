package adsketch_test

import (
	"context"
	"fmt"

	"adsketch"
)

// Build sketches for a small graph and estimate a neighborhood size.
func ExampleBuild() {
	g := adsketch.Grid(20, 20)
	set, err := adsketch.Build(g, adsketch.WithK(64), adsketch.WithSeed(42))
	if err != nil {
		panic(err)
	}
	// Exact |N_2(center)| on a grid interior is 13 (the radius-2 diamond).
	est := adsketch.EstimateNeighborhoodHIP(set.SketchOf(210), 2)
	fmt.Printf("|N_2| estimate within 25%% of 13: %v\n", est > 13*0.75 && est < 13*1.25)
	// Output:
	// |N_2| estimate within 25% of 13: true
}

// Serve batch centrality queries from cached per-node HIP indices.
func ExampleEngine() {
	g := adsketch.Grid(20, 20)
	set, err := adsketch.Build(g, adsketch.WithK(64), adsketch.WithSeed(42))
	if err != nil {
		panic(err)
	}
	eng, err := adsketch.NewEngine(set)
	if err != nil {
		panic(err)
	}
	// One batch call scores three nodes; the center of the grid is more
	// central than the corner.
	cl, err := eng.Closeness(context.Background(), 0, 210, 399)
	if err != nil {
		panic(err)
	}
	fmt.Printf("center beats corners: %v\n", cl[1] > cl[0] && cl[1] > cl[2])
	// Output:
	// center beats corners: true
}

// Estimate a distance-decay centrality with a query-time kernel and a
// metadata filter chosen after the sketches were built.
func ExampleEstimateCentrality() {
	g := adsketch.Star(100) // hub 0 with 99 leaves
	set, err := adsketch.Build(g, adsketch.WithK(16), adsketch.WithSeed(7))
	if err != nil {
		panic(err)
	}
	onlyEvenLeaves := func(v int32) float64 {
		if v != 0 && v%2 == 0 {
			return 1
		}
		return 0
	}
	est := adsketch.EstimateCentrality(set.SketchOf(0), adsketch.KernelThreshold(1), onlyEvenLeaves)
	fmt.Printf("even leaves within 1 hop of the hub: estimate in [30,70]: %v\n", est > 30 && est < 70)
	// Output:
	// even leaves within 1 hop of the hub: estimate in [30,70]: true
}

// Compare two nodes' neighborhoods with coordinated sketches.
func ExampleNeighborhoodJaccard() {
	g := adsketch.Complete(50)
	set, err := adsketch.Build(g, adsketch.WithK(8), adsketch.WithSeed(3))
	if err != nil {
		panic(err)
	}
	// In a complete graph every 1-hop neighborhood is the whole node set.
	j := adsketch.NeighborhoodJaccard(set.BottomK(4), 1, set.BottomK(9), 1)
	fmt.Printf("identical neighborhoods: Jaccard = %.0f\n", j)
	// Output:
	// identical neighborhoods: Jaccard = 1
}
