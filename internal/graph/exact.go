package graph

import "sort"

// NodeDist is a (node, distance) pair.
type NodeDist struct {
	Node int32
	Dist float64
}

// NearestOrder returns all nodes reachable from src sorted by increasing
// distance, ties broken by node ID.  Position i (0-based) in the returned
// slice is the Dijkstra rank π = i+1 of that node with respect to src —
// the quantity the ADS inclusion probabilities are defined over.  src
// itself appears first at distance 0.
func NearestOrder(g *Graph, src int32) []NodeDist {
	dist := Distances(g, src)
	order := make([]NodeDist, 0, 64)
	for v, d := range dist {
		if d != Infinity {
			order = append(order, NodeDist{Node: int32(v), Dist: d})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].Dist != order[j].Dist {
			return order[i].Dist < order[j].Dist
		}
		return order[i].Node < order[j].Node
	})
	return order
}

// NeighborhoodSize returns n_d(src) = |N_d(src)|, the number of nodes within
// distance d of src (inclusive), computed exactly.
func NeighborhoodSize(g *Graph, src int32, d float64) int {
	dist := Distances(g, src)
	n := 0
	for _, dd := range dist {
		if dd <= d {
			n++
		}
	}
	return n
}

// NeighborhoodFunction returns the exact neighborhood function of an
// unweighted graph: for each hop count t = 0,1,2,... the total number of
// ordered pairs (u,v) with d(u,v) <= t.  Index t of the result holds N(t).
// The series stops at the diameter (when it stops growing).
func NeighborhoodFunction(g *Graph) []int64 {
	var counts []int64
	for v := 0; v < g.NumNodes(); v++ {
		hops := BFS(g, int32(v))
		for _, h := range hops {
			if h < 0 {
				continue
			}
			for int(h) >= len(counts) {
				counts = append(counts, 0)
			}
			counts[h]++
		}
	}
	// Prefix-sum: counts[t] currently holds #pairs at exactly t.
	for t := 1; t < len(counts); t++ {
		counts[t] += counts[t-1]
	}
	return counts
}

// EffectiveDiameter returns the smallest hop count t such that at least
// fraction q (e.g. 0.9) of all reachable ordered pairs are within distance
// t, interpolating the convention used by ANF/HyperANF reports.
func EffectiveDiameter(nf []int64, q float64) float64 {
	if len(nf) == 0 {
		return 0
	}
	total := float64(nf[len(nf)-1])
	target := q * total
	for t, c := range nf {
		if float64(c) >= target {
			if t == 0 {
				return 0
			}
			prev := float64(nf[t-1])
			// Linear interpolation between t-1 and t.
			return float64(t-1) + (target-prev)/(float64(c)-prev)
		}
	}
	return float64(len(nf) - 1)
}

// Closeness returns the classic closeness centrality of src: the inverse of
// the sum of distances to all reachable nodes (0 if src reaches nothing but
// itself).  Used as exact ground truth for the C_alpha estimators.
func Closeness(g *Graph, src int32) float64 {
	dist := Distances(g, src)
	sum := 0.0
	for v, d := range dist {
		if int32(v) != src && d != Infinity {
			sum += d
		}
	}
	if sum == 0 {
		return 0
	}
	return 1 / sum
}

// HarmonicCentrality returns sum over v != src of 1/d(src,v), the harmonic
// mean centrality of Section 1 (alpha(x)=1/x).
func HarmonicCentrality(g *Graph, src int32) float64 {
	dist := Distances(g, src)
	sum := 0.0
	for v, d := range dist {
		if int32(v) != src && d != Infinity && d > 0 {
			sum += 1 / d
		}
	}
	return sum
}

// ReachableCount returns the number of nodes reachable from src, including
// src itself.
func ReachableCount(g *Graph, src int32) int {
	dist := Distances(g, src)
	n := 0
	for _, d := range dist {
		if d != Infinity {
			n++
		}
	}
	return n
}

// ConnectedComponents labels nodes of an undirected graph with component
// IDs 0..c-1 and returns the labels and the component count.  For directed
// graphs it computes weakly connected components of the underlying
// undirected structure (callers needing strong components should build the
// transpose union).
func ConnectedComponents(g *Graph) ([]int32, int) {
	n := g.NumNodes()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var t *Graph
	if g.Directed() {
		t = g.Transpose()
	}
	next := int32(0)
	queue := make([]int32, 0, 64)
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			ns, _ := g.Neighbors(u)
			for _, v := range ns {
				if comp[v] < 0 {
					comp[v] = next
					queue = append(queue, v)
				}
			}
			if t != nil {
				rs, _ := t.Neighbors(u)
				for _, v := range rs {
					if comp[v] < 0 {
						comp[v] = next
						queue = append(queue, v)
					}
				}
			}
		}
		next++
	}
	return comp, int(next)
}
