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
