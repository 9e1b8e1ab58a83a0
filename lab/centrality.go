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
// each query distance d, the number of ordered pairs (u,v) with
// d_uv <= d, by summing per-node HIP neighborhood estimates.
func (e *Centrality) DistanceDistribution(ds []float64) []float64 {
	out := make([]float64, len(ds))
	for v := int32(0); int(v) < e.set.NumNodes(); v++ {
		entries := e.set.SketchOf(v).HIPEntries()
		i := 0
		sum := 0.0
		for j, d := range ds {
			for i < len(entries) && entries[i].Dist <= d {
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
	return e.topBy(n, e.Closeness)
}

// TopHarmonic returns the estimated top-n nodes by harmonic centrality.
func (e *Centrality) TopHarmonic(n int) []Ranked {
	return e.topBy(n, e.Harmonic)
}

func (e *Centrality) topBy(n int, score func(int32) float64) []Ranked {
	all := make([]Ranked, e.set.NumNodes())
	for v := int32(0); int(v) < e.set.NumNodes(); v++ {
		all[v] = Ranked{Node: v, Score: score(v)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Node < all[j].Node
	})
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
}

// Exact baselines.

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
	all := make([]Ranked, g.NumNodes())
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		all[v] = Ranked{Node: v, Score: graph.Closeness(g, v)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Node < all[j].Node
	})
	if n > len(all) {
		n = len(all)
	}
	return all[:n]
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
