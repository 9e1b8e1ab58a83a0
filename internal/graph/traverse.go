package graph

import "math"

// Infinity is the distance reported for unreachable nodes.
var Infinity = math.Inf(1)

// BFS returns hop distances from src; unreachable nodes get -1.
func BFS(g *Graph, src int32) []int32 {
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, 64)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		ns, _ := g.Neighbors(u)
		for _, v := range ns {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// distHeap is a binary min-heap of (distance, node) pairs with lazy
// deletion, specialized to avoid container/heap interface overhead in the
// innermost loop of sketch construction.
type distHeap struct {
	d []float64
	v []int32
}

func (h *distHeap) len() int { return len(h.d) }

func (h *distHeap) push(d float64, v int32) {
	h.d = append(h.d, d)
	h.v = append(h.v, v)
	i := len(h.d) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.d[p] <= h.d[i] {
			break
		}
		h.d[p], h.d[i] = h.d[i], h.d[p]
		h.v[p], h.v[i] = h.v[i], h.v[p]
		i = p
	}
}

func (h *distHeap) pop() (float64, int32) {
	d, v := h.d[0], h.v[0]
	last := len(h.d) - 1
	h.d[0], h.v[0] = h.d[last], h.v[last]
	h.d, h.v = h.d[:last], h.v[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.d) && h.d[l] < h.d[small] {
			small = l
		}
		if r < len(h.d) && h.d[r] < h.d[small] {
			small = r
		}
		if small == i {
			break
		}
		h.d[i], h.d[small] = h.d[small], h.d[i]
		h.v[i], h.v[small] = h.v[small], h.v[i]
		i = small
	}
	return d, v
}

// Dijkstra returns shortest-path distances from src.  Unreachable nodes get
// +Inf.  For unweighted graphs edge length 1 is used (equivalent to BFS).
func Dijkstra(g *Graph, src int32) []float64 {
	dist := make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = Infinity
	}
	dist[src] = 0
	var h distHeap
	h.push(0, src)
	for h.len() > 0 {
		d, u := h.pop()
		if d > dist[u] {
			continue // stale entry
		}
		ns, ws := g.Neighbors(u)
		for i, v := range ns {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			if nd := d + w; nd < dist[v] {
				dist[v] = nd
				h.push(nd, v)
			}
		}
	}
	return dist
}

// Distances returns shortest-path distances from src as float64, using BFS
// for unweighted graphs and Dijkstra otherwise.  Unreachable nodes get +Inf.
func Distances(g *Graph, src int32) []float64 {
	if g.Weighted() {
		return Dijkstra(g, src)
	}
	hops := BFS(g, src)
	dist := make([]float64, len(hops))
	for i, h := range hops {
		if h < 0 {
			dist[i] = Infinity
		} else {
			dist[i] = float64(h)
		}
	}
	return dist
}

// Visitor performs repeated pruned shortest-path traversals over one graph
// while reusing its buffers: a lazy-deletion heap Dijkstra over a weighted
// graph.  This is the primitive Algorithm 1 (PrunedDijkstra) needs on
// weighted graphs — the ADS construction prunes the search at nodes whose
// sketch the new rank cannot improve.
//
// A traversal is pulled, not pushed, so the caller's per-node step runs
// inline in its own loop instead of behind a callback:
//
//	vis.Start(src)
//	for v, d, ok := vis.Next(); ok; v, d, ok = vis.Next() {
//		if keep(v, d) {
//			vis.Expand(v, d)
//		}
//	}
//
// Next yields each reached node once, in non-decreasing distance order
// (src first, at distance 0); a node the caller does not Expand is pruned:
// its out-edges are not relaxed.
//
// A Visitor is not safe for concurrent use; create one per goroutine.
type Visitor struct {
	g     *Graph
	dist  []float64
	dirty []int32 // nodes whose dist needs resetting
	heap  distHeap
}

// NewVisitor returns a Visitor over the weighted graph g.
func NewVisitor(g *Graph) *Visitor {
	vis := &Visitor{g: g, dist: make([]float64, g.NumNodes())}
	for i := range vis.dist {
		vis.dist[i] = Infinity
	}
	return vis
}

// Start begins a traversal from src, discarding whatever is left of the
// previous one.
func (vis *Visitor) Start(src int32) {
	for _, v := range vis.dirty {
		vis.dist[v] = Infinity
	}
	vis.heap.d = vis.heap.d[:0]
	vis.heap.v = vis.heap.v[:0]
	vis.dist[src] = 0
	vis.dirty = append(vis.dirty[:0], src)
	vis.heap.push(0, src)
}

// Next returns the next reached node and its distance from the source;
// ok is false once the traversal is exhausted.
func (vis *Visitor) Next() (v int32, d float64, ok bool) {
	for vis.heap.len() > 0 {
		d, v = vis.heap.pop()
		if d > vis.dist[v] {
			continue // stale entry
		}
		return v, d, true
	}
	return 0, 0, false
}

// Expand relaxes the out-edges of v, which Next just returned at
// distance d.
func (vis *Visitor) Expand(v int32, d float64) {
	ns, ws := vis.g.Neighbors(v)
	for i, w := range ns {
		if nd := d + ws[i]; nd < vis.dist[w] {
			if vis.dist[w] == Infinity {
				vis.dirty = append(vis.dirty, w)
			}
			vis.dist[w] = nd
			vis.heap.push(nd, w)
		}
	}
}
