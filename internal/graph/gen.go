package graph

import (
	"math"
	"math/rand"

	"adsketch/internal/rank"
)

// Deterministic graph generators used by examples, tests, and the benchmark
// harness.  Every generator is a pure function of its parameters (including
// the seed), so experiments are exactly reproducible.

// Path returns the undirected path 0-1-2-...-n-1.
func Path(n int) *Graph {
	b := NewBuilder(n, false)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

// Cycle returns the undirected cycle on n nodes.
func Cycle(n int) *Graph {
	b := NewBuilder(n, false)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.Build()
}

// Grid returns the rows x cols undirected grid (4-neighborhood).  Node
// (r,c) has ID r*cols+c.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows*cols, false)
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// Complete returns the complete undirected graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n, false)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.Build()
}

// Star returns the star with center 0 and n-1 leaves.
func Star(n int) *Graph {
	b := NewBuilder(n, false)
	for i := 1; i < n; i++ {
		b.AddEdge(0, int32(i))
	}
	return b.Build()
}

// RandomTree returns a uniform random recursive tree: node i attaches to a
// uniformly random earlier node.
func RandomTree(n int, seed uint64) *Graph {
	rng := rank.NewRNG(seed)
	b := NewBuilder(n, false)
	for i := 1; i < n; i++ {
		b.AddEdge(int32(i), int32(rng.Intn(i)))
	}
	return b.Build()
}

// GNP returns an Erdős–Rényi G(n,p) graph.  For directed graphs each
// ordered pair is an arc independently with probability p; for undirected
// each unordered pair.  Uses geometric skipping so generation is O(m).
func GNP(n int, p float64, directed bool, seed uint64) *Graph {
	b := NewBuilder(n, directed)
	if p <= 0 {
		return b.Build()
	}
	if p > 1 {
		p = 1
	}
	rng := rank.NewRNG(seed)
	// Iterate over pair indices with geometric jumps.
	var total int64
	if directed {
		total = int64(n) * int64(n-1)
	} else {
		total = int64(n) * int64(n-1) / 2
	}
	idx := int64(-1)
	for {
		// Skip ~Geometric(p) pairs.
		u := rng.Float64()
		skip := int64(logFloat(1-u) / logFloat(1-p))
		if skip < 0 {
			skip = 0
		}
		idx += 1 + skip
		if idx >= total {
			break
		}
		if directed {
			u := int32(idx / int64(n-1))
			r := int32(idx % int64(n-1))
			v := r
			if v >= u {
				v++
			}
			b.AddEdge(u, v)
		} else {
			u, v := pairFromIndex(idx, n)
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

func logFloat(x float64) float64 {
	// Local wrapper so the geometric-skip formula reads clearly; x in (0,1].
	if x <= 0 {
		return -1e300
	}
	return math.Log(x)
}

// pairFromIndex maps a linear index to the (u,v), u<v pair in row-major
// order over the upper triangle.
func pairFromIndex(idx int64, n int) (int32, int32) {
	u := int64(0)
	rowLen := int64(n - 1)
	for idx >= rowLen {
		idx -= rowLen
		u++
		rowLen--
	}
	return int32(u), int32(u + 1 + idx)
}

// PreferentialAttachment returns a Barabási–Albert graph: nodes arrive one
// at a time and attach m edges to existing nodes chosen proportionally to
// their current degree (the standard repeated-endpoint trick).  The result
// is connected for m >= 1.
func PreferentialAttachment(n, m int, seed uint64) *Graph {
	if m < 1 {
		m = 1
	}
	rng := rank.NewRNG(seed)
	b := NewBuilder(n, false)
	// endpoints records every edge endpoint; sampling a uniform element of
	// it is degree-proportional sampling.
	endpoints := make([]int32, 0, 2*n*m)
	start := m + 1
	if start > n {
		start = n
	}
	// Seed clique over the first min(m+1, n) nodes.
	for i := 0; i < start; i++ {
		for j := i + 1; j < start; j++ {
			b.AddEdge(int32(i), int32(j))
			endpoints = append(endpoints, int32(i), int32(j))
		}
	}
	// chosen[t] == v once node v has picked t (v >= 1, so the zero value
	// marks nothing); picked keeps the draw order, on which the edge and
	// endpoint order, and so every pinned test, depend.
	chosen := make([]int32, n)
	picked := make([]int32, 0, m)
	for v := start; v < n; v++ {
		picked = picked[:0]
		for len(picked) < m {
			var t int32
			if len(endpoints) == 0 {
				t = int32(rng.Intn(v))
			} else {
				t = endpoints[rng.Intn(len(endpoints))]
			}
			if t == int32(v) || chosen[t] == int32(v) {
				continue
			}
			chosen[t] = int32(v)
			picked = append(picked, t)
		}
		for _, t := range picked {
			b.AddEdge(int32(v), t)
			endpoints = append(endpoints, int32(v), t)
		}
	}
	return b.Build()
}

// WattsStrogatz returns a small-world graph: a ring lattice where each node
// connects to its k nearest neighbors (k even), with each edge rewired to a
// uniform random target with probability beta.
func WattsStrogatz(n, k int, beta float64, seed uint64) *Graph {
	if k%2 != 0 {
		k++
	}
	rng := rank.NewRNG(seed)
	type edge struct{ u, v int32 }
	seen := make(map[edge]bool)
	add := func(u, v int32) bool {
		if u == v {
			return false
		}
		if u > v {
			u, v = v, u
		}
		if seen[edge{u, v}] {
			return false
		}
		seen[edge{u, v}] = true
		return true
	}
	b := NewBuilder(n, false)
	for i := 0; i < n; i++ {
		for j := 1; j <= k/2; j++ {
			u := int32(i)
			v := int32((i + j) % n)
			if rng.Float64() < beta {
				// Rewire to a random target, keeping u fixed.
				for tries := 0; tries < 32; tries++ {
					cand := int32(rng.Intn(n))
					if add(u, cand) {
						b.AddEdge(u, cand)
						v = -1
						break
					}
				}
				if v == -1 {
					continue
				}
			}
			if add(u, v) {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// WithRandomWeights returns a copy of g where every arc gets an independent
// uniform length in [lo, hi).  For undirected graphs the two arcs of an edge
// receive the same length.  lo must be positive.
func WithRandomWeights(g *Graph, lo, hi float64, seed uint64) *Graph {
	if lo <= 0 || hi < lo {
		panic("graph: invalid weight range")
	}
	src := rank.NewSource(seed)
	b := NewBuilder(g.NumNodes(), g.Directed())
	g.ForEachArc(func(u, v int32, _ float64) {
		if !g.Directed() && u > v {
			return // add each undirected edge once
		}
		// Hash the (canonical) endpoint pair so both arcs agree.
		key := int64(u)*int64(g.NumNodes()) + int64(v)
		w := lo + (hi-lo)*src.Rank(key)
		b.AddWeightedEdge(u, v, w)
	})
	return b.Build()
}

// RandomSmall draws the construction oracle's test graph: at most 40 nodes,
// directed or not, sparse enough to be disconnected about as often as not,
// with self-loops and duplicate edges, and — when weighted — edge lengths
// from {1,2,3}, so that many distinct paths have exactly equal length.
//
//adsvet:ignore deadsurface the random graphs core's and ingest's differential tests share, which a _test.go file cannot export across packages
func RandomSmall(rng *rand.Rand) *Graph {
	n := 1 + rng.Intn(40)
	weighted := rng.Intn(2) == 0
	b := NewBuilder(n, rng.Intn(2) == 0)
	var u, v int32
	for i, m := 0, rng.Intn(3*n); i < m; i++ {
		switch rng.Intn(8) {
		case 0: // self-loop
			u = int32(rng.Intn(n))
			v = u
		case 1: // duplicate of the previous edge (a new length if weighted)
		default:
			u, v = int32(rng.Intn(n)), int32(rng.Intn(n))
		}
		if weighted {
			b.AddWeightedEdge(u, v, float64(1+rng.Intn(3)))
		} else {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}
