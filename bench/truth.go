package main

import (
	"fmt"
	"math"

	"adsketch"
)

// truthRadii are the neighborhood radii the accuracy pass judges.
var truthRadii = [...]float64{1, 2, 3}

// truth holds exact answers, from BFS, for a seeded sample of nodes.
type truth struct {
	nodes     []int32
	closeness []float64                  // 1 / sum of distances
	nbr       [len(truthRadii)][]float64 // |N_d(v)|, v included
}

// exactTruth runs one BFS per sampled node of the unweighted graph g.
func exactTruth(g *adsketch.Graph, seed uint64, sample int) *truth {
	n := g.NumNodes()
	t := &truth{nodes: make([]int32, sample), closeness: make([]float64, sample)}
	for r := range t.nbr {
		t.nbr[r] = make([]float64, sample)
	}
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	h := splitmix(seed ^ 0x7472757468) // "truth": a stream of its own
	for i := range t.nodes {
		h = splitmix(h)
		src := int32(h % uint64(n))
		t.nodes[i] = src
		for j := range dist {
			dist[j] = -1
		}
		dist[src] = 0
		queue = append(queue[:0], src)
		var sum float64
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			d := dist[u]
			sum += float64(d)
			for r, radius := range truthRadii {
				if float64(d) <= radius {
					t.nbr[r][i]++
				}
			}
			nbrs, _ := g.Neighbors(u)
			for _, v := range nbrs {
				if dist[v] < 0 {
					dist[v] = d + 1
					queue = append(queue, v)
				}
			}
		}
		if sum > 0 {
			t.closeness[i] = 1 / sum
		}
	}
	return t
}

// accuracyBatch is the nodes per request of the accuracy pass.
const accuracyBatch = 16

// cvTolerance is the accepted multiple of the Theorem 5.1 bound
// 1/sqrt(2k-2) on the coefficient of variation of a HIP estimate: the
// conformance suite's rule.
const cvTolerance = 1.4

// accuracy asks do for the closeness and the neighborhood sizes of the
// sampled nodes and returns the NRMSE of each against the exact values
// and the number of requests sent.  It fails when either exceeds
// cvTolerance times the paper's bound for sketch parameter k.
func (t *truth) accuracy(do doFunc, k int) (closeness, neighborhood float64, requests int, err error) {
	estClose := make([]float64, 0, len(t.nodes))
	var estNbr, exactNbr []float64
	ask := func(req adsketch.Request, want int) ([]float64, error) {
		requests++
		resp, err := do(&req)
		if err != nil {
			return nil, fmt.Errorf("accuracy pass: %w", err)
		}
		if len(resp.Scores) != want {
			return nil, fmt.Errorf("accuracy pass: %d scores for %d nodes", len(resp.Scores), want)
		}
		return resp.Scores, nil
	}
	for lo := 0; lo < len(t.nodes); lo += accuracyBatch {
		hi := min(lo+accuracyBatch, len(t.nodes))
		nodes := t.nodes[lo:hi]
		scores, err := ask(adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: nodes}}, len(nodes))
		if err != nil {
			return 0, 0, requests, err
		}
		estClose = append(estClose, scores...)
		for r, radius := range truthRadii {
			scores, err := ask(adsketch.Request{Neighborhood: &adsketch.NeighborhoodQuery{Radius: radius, Nodes: nodes}}, len(nodes))
			if err != nil {
				return 0, 0, requests, err
			}
			estNbr = append(estNbr, scores...)
			exactNbr = append(exactNbr, t.nbr[r][lo:hi]...)
		}
	}
	closeness = nrmse(estClose, t.closeness)
	neighborhood = nrmse(estNbr, exactNbr)
	bound := 1 / math.Sqrt(2*float64(k)-2)
	if limit := cvTolerance * bound; closeness > limit || neighborhood > limit {
		return 0, 0, requests, fmt.Errorf("accuracy: closeness NRMSE %.4f, neighborhood NRMSE %.4f, limit %.4f = %.1f x the bound 1/sqrt(2k-2) = %.4f at k=%d",
			closeness, neighborhood, limit, cvTolerance, bound, k)
	}
	return closeness, neighborhood, requests, nil
}
