// Distancedist: the distance distribution of a whole graph — the original
// ANF/HyperANF application (paper Appendix B.1).  For each hop count t we
// estimate the number of ordered node pairs within distance t using the
// memory-limited register DP (k HyperLogLog registers per node) with both
// the classic (basic) readout and the HIP readout, and derive the
// effective diameter.  Exact values from full BFS are shown for reference.
package main

import (
	"fmt"

	"adsketch"
	"adsketch/lab"
)

func main() {
	// A small-world graph: ring lattice with 5% rewiring.
	g := adsketch.WattsStrogatz(3000, 6, 0.05, 17)
	fmt.Printf("graph: %d nodes, %d edges\n\n", g.NumNodes(), g.NumEdges())

	exact := lab.ExactNeighborhoodFunction(g)

	basic, err := lab.NeighborhoodFunction(g, lab.ANFOptions{
		K: 64, Seed: 4, Readout: lab.ANFBasic,
	})
	if err != nil {
		panic(err)
	}
	hip, err := lab.NeighborhoodFunction(g, lab.ANFOptions{
		K: 64, Seed: 4, Readout: lab.ANFHIP,
	})
	if err != nil {
		panic(err)
	}

	// The same distribution can also be read from per-node ADS sketches
	// (k entries of full state per node instead of k registers): build a
	// sketch set with the unified Build API and sum per-node HIP
	// neighborhood estimates.
	set, err := adsketch.Build(g, adsketch.WithK(64), adsketch.WithSeed(4))
	if err != nil {
		panic(err)
	}
	ds := make([]float64, len(exact))
	for t := range ds {
		ds[t] = float64(t)
	}
	adsNF := lab.NewCentrality(set).DistanceDistribution(ds)

	fmt.Printf("%6s %14s %14s %14s %14s %10s %10s %10s\n",
		"hops", "exact pairs", "basic est", "HIP est", "ADS est", "basic err", "HIP err", "ADS err")
	for t := 0; t < len(exact); t += 2 {
		e := float64(exact[t])
		b := at(basic.NF, t)
		h := at(hip.NF, t)
		a := at(adsNF, t)
		fmt.Printf("%6d %14.0f %14.0f %14.0f %14.0f %+9.2f%% %+9.2f%% %+9.2f%%\n",
			t, e, b, h, a, 100*(b-e)/e, 100*(h-e)/e, 100*(a-e)/e)
	}

	fmt.Printf("\neffective diameter (90%%):\n")
	exactNF := make([]float64, len(exact)) // counts below 2⁵³: exact
	for t, c := range exact {
		exactNF[t] = float64(c)
	}
	fmt.Printf("  exact: %.2f\n", lab.EffectiveDiameter(exactNF, 0.9))
	fmt.Printf("  basic: %.2f\n", lab.EffectiveDiameter(basic.NF, 0.9))
	fmt.Printf("  HIP:   %.2f\n", lab.EffectiveDiameter(hip.NF, 0.9))
	fmt.Printf("\nDP rounds: %d (hop diameter of the graph)\n", hip.Rounds)
}

func at(nf []float64, t int) float64 {
	if t >= len(nf) {
		t = len(nf) - 1
	}
	return nf[t]
}
