// Package graph provides the graph substrate for the ADS library: a compact
// CSR (compressed sparse row) adjacency representation for directed or
// undirected, weighted or unweighted graphs, traversals (BFS, Dijkstra with
// pruning hooks, Bellman–Ford rounds), exact distance oracles used as ground
// truth by tests and benchmarks, deterministic random-graph generators, and
// edge-list I/O.
//
// Node IDs are dense integers 0..n-1.  Edge weights are shortest-path
// lengths and must be positive and finite (ValidLength).  An unweighted
// graph treats every edge as length 1 ("hops").
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Graph is an immutable graph in CSR form.  Build one with a Builder or a
// generator.  For directed graphs the adjacency lists are the out-edges;
// Transpose gives the reverse direction (in-edges), which the backward ADS
// and Algorithm 1 (PrunedDijkstra runs on the transpose) need.
type Graph struct {
	n        int
	directed bool
	off      []int64   // len n+1; adjacency of v is dst[off[v]:off[v+1]]
	dst      []int32   // edge targets
	w        []float64 // edge lengths; nil means every edge has length 1
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumArcs returns the number of stored arcs.  For an undirected graph each
// edge is stored as two arcs.
func (g *Graph) NumArcs() int { return len(g.dst) }

// NumEdges returns the number of logical edges (arcs for directed graphs,
// arcs/2 for undirected graphs).
func (g *Graph) NumEdges() int {
	if g.directed {
		return len(g.dst)
	}
	return len(g.dst) / 2
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// Weighted reports whether the graph carries explicit edge lengths.
func (g *Graph) Weighted() bool { return g.w != nil }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v int32) int {
	return int(g.off[v+1] - g.off[v])
}

// Neighbors returns the adjacency slice of v and the parallel weight slice.
// The weight slice is nil for unweighted graphs (every edge has length 1).
// The returned slices alias the graph's storage and must not be modified.
func (g *Graph) Neighbors(v int32) ([]int32, []float64) {
	lo, hi := g.off[v], g.off[v+1]
	if g.w == nil {
		return g.dst[lo:hi], nil
	}
	return g.dst[lo:hi], g.w[lo:hi]
}

// ForEachArc calls fn(u, v, w) for every stored arc.  w is 1 for unweighted
// graphs.
func (g *Graph) ForEachArc(fn func(u, v int32, w float64)) {
	for u := int32(0); int(u) < g.n; u++ {
		ns, ws := g.Neighbors(u)
		for i, v := range ns {
			ww := 1.0
			if ws != nil {
				ww = ws[i]
			}
			fn(u, v, ww)
		}
	}
}

// Transpose returns the graph with every arc reversed.  For undirected
// graphs it returns the receiver (the transpose is identical).
func (g *Graph) Transpose() *Graph {
	if !g.directed {
		return g
	}
	deg := make([]int64, g.n+1)
	for _, v := range g.dst {
		deg[v+1]++
	}
	off := make([]int64, g.n+1)
	for i := 0; i < g.n; i++ {
		off[i+1] = off[i] + deg[i+1]
	}
	dst := make([]int32, len(g.dst))
	var w []float64
	if g.w != nil {
		w = make([]float64, len(g.w))
	}
	cursor := make([]int64, g.n)
	copy(cursor, off[:g.n])
	for u := int32(0); int(u) < g.n; u++ {
		lo, hi := g.off[u], g.off[u+1]
		for i := lo; i < hi; i++ {
			v := g.dst[i]
			p := cursor[v]
			cursor[v]++
			dst[p] = u
			if w != nil {
				w[p] = g.w[i]
			}
		}
	}
	t := &Graph{n: g.n, directed: true, off: off, dst: dst, w: w}
	t.sortAdjacency()
	return t
}

// sortAdjacency orders each adjacency list by (target, weight) so traversal
// order is deterministic.
func (g *Graph) sortAdjacency() {
	for v := 0; v < g.n; v++ {
		lo, hi := g.off[v], g.off[v+1]
		if g.w == nil {
			slices.Sort(g.dst[lo:hi])
			continue
		}
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = i
		}
		d, w := g.dst[lo:hi], g.w[lo:hi]
		slices.SortFunc(idx, func(i, j int) int {
			if c := cmp.Compare(d[i], d[j]); c != 0 {
				return c
			}
			return cmp.Compare(w[i], w[j])
		})
		nd := make([]int32, len(idx))
		nw := make([]float64, len(idx))
		for i, j := range idx {
			nd[i], nw[i] = d[j], w[j]
		}
		copy(d, nd)
		copy(w, nw)
	}
}

// arc is a staging edge inside a Builder.
type arc struct {
	u, v int32
	w    float64
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	n        int
	directed bool
	weighted bool
	arcs     []arc
}

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int, directed bool) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n, directed: directed}
}

// AddEdge adds an edge of length 1 from u to v (and v to u when the graph
// is undirected).
func (b *Builder) AddEdge(u, v int32) { b.add(u, v, 1, false) }

// AddWeightedEdge adds an edge with the given length, which must be
// positive and finite.
func (b *Builder) AddWeightedEdge(u, v int32, w float64) { b.add(u, v, w, true) }

// ValidLength reports whether w can be an edge length: positive and
// finite.  A NaN or infinite length would pass a "w <= 0" test and cut
// every distance through the edge off, so the edge-list readers, the
// builder and the ingest maintainer all refuse any w it rejects.
func ValidLength(w float64) bool { return w > 0 && !math.IsInf(w, 1) }

func (b *Builder) add(u, v int32, w float64, weighted bool) {
	if int(u) >= b.n || int(v) >= b.n || u < 0 || v < 0 {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if !ValidLength(w) {
		panic(fmt.Sprintf("graph: edge (%d,%d) has length %g, want positive and finite", u, v, w))
	}
	if weighted {
		b.weighted = true
	}
	b.arcs = append(b.arcs, arc{u, v, w})
}

// NumNodes reports the node count the builder was created with.
func (b *Builder) NumNodes() int { return b.n }

// Build finalizes the graph.  The builder may be reused afterwards; arcs
// added so far are retained.
func (b *Builder) Build() *Graph {
	narcs := len(b.arcs)
	if !b.directed {
		narcs *= 2
	}
	deg := make([]int64, b.n+1)
	for _, a := range b.arcs {
		deg[a.u+1]++
		if !b.directed {
			deg[a.v+1]++
		}
	}
	off := make([]int64, b.n+1)
	for i := 0; i < b.n; i++ {
		off[i+1] = off[i] + deg[i+1]
	}
	dst := make([]int32, narcs)
	var w []float64
	if b.weighted {
		w = make([]float64, narcs)
	}
	cursor := make([]int64, b.n)
	copy(cursor, off[:b.n])
	put := func(u, v int32, ww float64) {
		p := cursor[u]
		cursor[u]++
		dst[p] = v
		if w != nil {
			w[p] = ww
		}
	}
	for _, a := range b.arcs {
		put(a.u, a.v, a.w)
		if !b.directed {
			put(a.v, a.u, a.w)
		}
	}
	g := &Graph{n: b.n, directed: b.directed, off: off, dst: dst, w: w}
	g.sortAdjacency()
	return g
}
