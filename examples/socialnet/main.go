// Socialnet: metadata-filtered centrality queries on a synthetic social
// network — the C_{α,β} queries of equation (2), where the node filter β
// (here: region and activity attributes) is chosen at query time, long
// after the sketches were built.  This query flexibility is what the HIP
// estimators add over earlier ADS estimators, which needed a separate
// β-specific sketch construction (paper Sections 1 and 9).
package main

import (
	"context"
	"fmt"

	"adsketch"
	"adsketch/internal/graph"
	"adsketch/internal/rank"
	"adsketch/lab"
)

// member is synthetic per-user metadata.
type member struct {
	region string
	active bool
}

func main() {
	const n = 5000
	g := adsketch.PreferentialAttachment(n, 4, 7)

	// Assign metadata deterministically.
	regions := []string{"north", "south", "east", "west"}
	rng := rank.NewRNG(99)
	members := make([]member, n)
	for i := range members {
		members[i] = member{
			region: regions[rng.Intn(len(regions))],
			active: rng.Float64() < 0.3,
		}
	}

	set, err := adsketch.Build(g, adsketch.WithK(32), adsketch.WithSeed(5))
	if err != nil {
		panic(err)
	}
	c := lab.NewCentrality(set)

	// Query 1: how many *active northern* users are within 2 hops of a
	// given user?  β filters on metadata; α is a distance threshold.
	beta := func(v int32) float64 {
		if members[v].region == "north" && members[v].active {
			return 1
		}
		return 0
	}
	fmt.Println("active northern users within 2 hops (HIP vs exact):")
	for _, v := range []int32{10, 500, 2500} {
		est := c.Custom(v, adsketch.KernelThreshold(2), beta)
		exact := 0.0
		for _, nd := range graph.NearestOrder(g, v) {
			if nd.Dist <= 2 {
				exact += beta(nd.Node)
			}
		}
		fmt.Printf("  v=%-5d:  %7.1f  vs %6.0f\n", v, est, exact)
	}

	// Query 2: exponentially-attenuated influence over active users only
	// (α(x)=2^-x — Dangalchev's residual closeness, β = activity flag).
	// Served as one Engine batch: Q_g with g(j,d) = 2^-d · active(j).
	activeBeta := func(v int32) float64 {
		if members[v].active {
			return 1
		}
		return 0
	}
	eng, err := adsketch.NewEngine(set)
	if err != nil {
		panic(err)
	}
	users := []int32{10, 500, 2500}
	ests, err := eng.EstimateQBatch(context.Background(), func(node int32, dist float64) float64 {
		return kexp(dist) * activeBeta(node)
	}, users...)
	if err != nil {
		panic(err)
	}
	fmt.Println("\nexponentially-attenuated influence over active users:")
	for i, v := range users {
		exact := 0.0
		for _, nd := range graph.NearestOrder(g, v) {
			exact += kexp(nd.Dist) * activeBeta(nd.Node)
		}
		fmt.Printf("  v=%-5d:  %7.1f  vs %7.1f  (%+.1f%%)\n",
			v, ests[i], exact, 100*(ests[i]-exact)/exact)
	}

	// Query 3: same sketches, different β — per-region reach of one user.
	fmt.Println("\nreach of user 10 within 3 hops, by region (one sketch, four queries):")
	for _, reg := range regions {
		reg := reg
		est := c.Custom(10, adsketch.KernelThreshold(3), func(v int32) float64 {
			if members[v].region == reg {
				return 1
			}
			return 0
		})
		fmt.Printf("  %-6s %8.1f\n", reg, est)
	}
}

func kexp(x float64) float64 { return adsketch.KernelExponential(x) }
