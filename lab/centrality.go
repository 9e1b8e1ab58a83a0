package lab

import (
	"math"
	"sort"

	"adsketch/internal/cluster"
	"adsketch/internal/core"
	"adsketch/internal/graph"
)

// The reference centrality toolkit: the graph-analysis applications the
// paper motivates (Section 1) — closeness and distance-decay centralities,
// neighborhood cardinalities, distance distributions, and top-N centrality
// rankings — each estimated per call from an ADS set via the HIP
// estimators, together with exact baselines and rank-agreement measures
// for evaluation.  adsketch.Engine serves the same estimates from cached
// per-node indices.
//
// All queries are answered from the sketches alone — no graph traversals —
// and the kernel α and node filter β may be chosen after the sketches are
// built, the query flexibility that distinguishes HIP from earlier
// per-β sketch constructions (Section 9 discussion).

// Sketches is the narrow view of a sketch set Centrality queries: any
// set kind (uniform, weighted, approximate) that exposes per-node
// sketches through the shared query interface, an *adsketch.Set among
// them.
type Sketches interface {
	NumNodes() int
	SketchOf(v int32) core.Sketch
}

// Centrality answers centrality queries from a prebuilt sketch set.
type Centrality struct {
	set Sketches
}

// NewCentrality wraps a sketch set (of any kind) for per-call centrality
// queries.
func NewCentrality(set Sketches) *Centrality { return &Centrality{set: set} }

// Set returns the underlying sketch set.
func (e *Centrality) Set() Sketches { return e.set }

// NeighborhoodSize estimates n_d(v) with the HIP estimator.
func (e *Centrality) NeighborhoodSize(v int32, d float64) float64 {
	return core.EstimateNeighborhoodHIP(e.set.SketchOf(v), d)
}

// Reachable estimates the number of nodes reachable from v (including v).
func (e *Centrality) Reachable(v int32) float64 {
	return core.EstimateCentrality(e.set.SketchOf(v), core.KernelReachability, core.UnitBeta)
}

// SumDistances estimates Σ_j d_vj over reachable nodes.
func (e *Centrality) SumDistances(v int32) float64 {
	return core.EstimateCentrality(e.set.SketchOf(v), core.KernelIdentity, core.UnitBeta)
}

// Closeness estimates the classic closeness centrality 1/Σ_j d_vj.
// It returns 0 when the estimated distance sum is 0 (isolated node).
func (e *Centrality) Closeness(v int32) float64 {
	s := e.SumDistances(v)
	if s <= 0 {
		return 0
	}
	return 1 / s
}

// Harmonic estimates Σ_{j != v} 1/d_vj.
func (e *Centrality) Harmonic(v int32) float64 {
	return core.EstimateCentrality(e.set.SketchOf(v), core.KernelHarmonic, core.UnitBeta)
}

// ExponentialDecay estimates Σ_j 2^{-d_vj} (excluding v itself, which
// contributes α(0)=1 and is subtracted).
func (e *Centrality) ExponentialDecay(v int32) float64 {
	c := core.EstimateCentrality(e.set.SketchOf(v), core.KernelExponential, core.UnitBeta)
	return c - 1 // the owner's own α(0)β(v) term
}

// Custom estimates C_{α,β}(v) for caller-supplied kernel and node filter.
func (e *Centrality) Custom(v int32, alpha func(float64) float64, beta func(int32) float64) float64 {
	return core.EstimateCentrality(e.set.SketchOf(v), alpha, beta)
}

// DistanceDistribution estimates the graph's distance distribution: for
// each query distance d, in any order, the number of ordered pairs (u,v)
// with d_uv <= d, by summing per-node HIP neighborhood estimates.
func (e *Centrality) DistanceDistribution(ds []float64) []float64 {
	// One scan of each node's entries answers the distances ascending.
	order := make([]int, len(ds))
	for j := range order {
		order[j] = j
	}
	sort.SliceStable(order, func(a, b int) bool { return ds[order[a]] < ds[order[b]] })
	out := make([]float64, len(ds))
	for v := int32(0); int(v) < e.set.NumNodes(); v++ {
		entries := e.set.SketchOf(v).HIPEntries()
		i := 0
		sum := 0.0
		for _, j := range order {
			for i < len(entries) && entries[i].Dist <= ds[j] {
				sum += entries[i].Weight
				i++
			}
			out[j] += sum
		}
	}
	return out
}

// Ranked is one node with its centrality score.
type Ranked = cluster.Ranked

// TopCloseness returns the estimated top-n nodes by closeness centrality,
// highest first (ties broken by node ID for determinism).
func (e *Centrality) TopCloseness(n int) []Ranked {
	return topN(e.set.NumNodes(), n, e.Closeness)
}

// TopHarmonic returns the estimated top-n nodes by harmonic centrality.
func (e *Centrality) TopHarmonic(n int) []Ranked {
	return topN(e.set.NumNodes(), n, e.Harmonic)
}

// topN scores nodes 0..count-1 and returns the n highest, highest first
// (ties broken by node ID for determinism).
func topN(count, n int, score func(int32) float64) []Ranked {
	all := make([]Ranked, count)
	for v := int32(0); int(v) < count; v++ {
		all[v] = Ranked{Node: v, Score: score(v)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Node < all[j].Node
	})
	return all[:min(n, count)]
}

// Exact baselines: ground truth by traversal, one search per call.

// ExactNeighborhoodSize returns n_d(src) = |N_d(src)|, the number of nodes
// within distance d of src (inclusive).
func ExactNeighborhoodSize(g *graph.Graph, src int32, d float64) int {
	n := 0
	for _, dd := range graph.Distances(g, src) {
		if dd <= d {
			n++
		}
	}
	return n
}

// ExactNeighborhoodFunction returns the neighborhood function of an
// unweighted graph: for each hop count t = 0,1,2,... the total number of
// ordered pairs (u,v) with d(u,v) <= t.  Index t of the result holds N(t);
// the series stops at the diameter (when it stops growing).  Its counts
// are below 2⁵³, so they convert to float64 exactly, for
// EffectiveDiameter.
func ExactNeighborhoodFunction(g *graph.Graph) []int64 {
	var counts []int64
	for v := 0; v < g.NumNodes(); v++ {
		for _, h := range graph.BFS(g, int32(v)) {
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

// ExactCloseness returns the classic closeness centrality of src: the
// inverse of the sum of distances to all reachable nodes (0 if src
// reaches nothing but itself).
func ExactCloseness(g *graph.Graph, src int32) float64 {
	sum := 0.0
	for v, d := range graph.Distances(g, src) {
		if int32(v) != src && d != graph.Infinity {
			sum += d
		}
	}
	if sum == 0 {
		return 0
	}
	return 1 / sum
}

// ExactHarmonic returns the harmonic centrality of src, Σ_{v != src}
// 1/d(src,v) (Section 1, α(x) = 1/x).
func ExactHarmonic(g *graph.Graph, src int32) float64 {
	sum := 0.0
	for v, d := range graph.Distances(g, src) {
		if int32(v) != src && d != graph.Infinity && d > 0 {
			sum += 1 / d
		}
	}
	return sum
}

// ExactExponentialDecay computes Σ_{j != v} 2^{-d_vj} by traversal.
func ExactExponentialDecay(g *graph.Graph, v int32) float64 {
	sum := 0.0
	for _, nd := range graph.NearestOrder(g, v) {
		if nd.Node == v {
			continue
		}
		sum += math.Exp2(-nd.Dist)
	}
	return sum
}

// ExactTopCloseness returns the true top-n closeness ranking.
func ExactTopCloseness(g *graph.Graph, n int) []Ranked {
	return topN(g.NumNodes(), n, func(v int32) float64 { return ExactCloseness(g, v) })
}

// TopOverlap returns |A ∩ B| / n for two top-n rankings — the precision of
// an estimated ranking against the exact one.
func TopOverlap(a, b []Ranked) float64 {
	if len(a) == 0 {
		return 0
	}
	inA := make(map[int32]bool, len(a))
	for _, r := range a {
		inA[r.Node] = true
	}
	hit := 0
	for _, r := range b {
		if inA[r.Node] {
			hit++
		}
	}
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	return float64(hit) / float64(n)
}

// SpearmanRho returns the Spearman rank correlation between two score
// vectors over the same node set — a standard quality measure for
// estimated centrality rankings against exact ones.
func SpearmanRho(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	ra := ranksOf(a)
	rb := ranksOf(b)
	n := float64(len(a))
	var ma, mb float64
	for i := range ra {
		ma += ra[i]
		mb += rb[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// ranksOf assigns average ranks (1-based, ties averaged).
func ranksOf(x []float64) []float64 {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return x[idx[i]] < x[idx[j]] })
	out := make([]float64, len(x))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && x[idx[j]] == x[idx[i]] {
			j++
		}
		avg := (float64(i) + float64(j-1)) / 2
		for t := i; t < j; t++ {
			out[idx[t]] = avg + 1
		}
		i = j
	}
	return out
}
