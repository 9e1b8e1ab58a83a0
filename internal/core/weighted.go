package core

import (
	"fmt"
	"math"

	"adsketch/internal/graph"
)

// Section 9: non-uniform node weights.  To estimate weighted neighborhood
// cardinalities n_d(v) = Σ_{j: d_vj <= d} β(j) and weighted centralities
// C_{α,β} with the same CV guarantees as the uniform case, the ADS is
// computed over exponentially distributed ranks r(j) ~ Exp(β(j)): nodes
// with larger weight get stochastically smaller ranks and correspondingly
// higher inclusion probabilities.
//
// The HIP machinery carries over with one change: conditioned on the ranks
// of preceding nodes, node j enters the sketch iff its rank is below the
// k-th smallest preceding rank τ, which for an Exp(β_j) rank happens with
// probability 1 - exp(-β_j·τ).  The adjusted weight of an entry is then
// β_j / (1 - exp(-β_j·τ)), an unbiased estimate of j's contribution β_j.

// WeightScheme selects how node weights bias the ranks (Section 9).
type WeightScheme int

// Weighted sampling schemes.
const (
	// ExponentialWeights draws r(i) ~ Exp(β(i)) — weighted sampling "with
	// replacement" semantics; inclusion probability of an entry given
	// threshold τ is 1 - exp(-β·τ).
	ExponentialWeights WeightScheme = iota
	// PriorityWeights uses r(i) = r'(i)/β(i) (Sequential Poisson /
	// priority sampling); inclusion probability given threshold τ is
	// min(1, β·τ).
	PriorityWeights
)

func (w WeightScheme) String() string {
	switch w {
	case ExponentialWeights:
		return "exponential"
	case PriorityWeights:
		return "priority"
	}
	return fmt.Sprintf("WeightScheme(%d)", int(w))
}

// weightedInclusionProb is the scheme's inclusion probability of a
// weight-β entry against threshold τ.
func weightedInclusionProb(scheme WeightScheme, b, tau float64) float64 {
	if scheme == PriorityWeights {
		return math.Min(1, b*tau)
	}
	return -math.Expm1(-b * tau) // 1 - e^{-βτ}
}

// WeightedADS is a bottom-k ADS over weight-biased ranks.  Entries are in
// canonical order (columnar, like ADS); Rank holds the biased rank.
type WeightedADS struct {
	k      int
	node   int32
	scheme WeightScheme
	c      cols // with the β of each entry in c.beta
}

var _ Sketch = (*WeightedADS)(nil)

// K returns the sketch parameter.
func (a *WeightedADS) K() int { return a.k }

// Node returns the owner.
func (a *WeightedADS) Node() int32 { return a.node }

// Size returns the number of entries.
func (a *WeightedADS) Size() int { return a.c.len() }

// EstimateNeighborhood returns the HIP estimate of the weighted
// neighborhood cardinality Σ_{j: d_vj <= d} β(j).  Under weight-biased
// ranks the Section 4 basic estimator does not apply, so the HIP estimate
// is the estimator for this kind (Section 9); the method exists so
// weighted sketches satisfy the shared Sketch query interface.
func (a *WeightedADS) EstimateNeighborhood(d float64) float64 {
	return a.EstimateNeighborhoodWeight(d)
}

// Entries materializes the entries in canonical order (a fresh copy; the
// storage is columnar).
//
//adsvet:ignore deadsurface the weighted twin of ADS.Entries: the only way to read a weighted view's ranks from outside core, which the rank-derivation and conversion tests check
func (a *WeightedADS) Entries() []Entry { return a.c.entries() }

// HIPEntries returns each entry with its adjusted weight β_j/p_j, where
// p_j is the scheme's inclusion probability against τ_j, the k-th smallest
// biased rank among preceding entries (+Inf for the first k, giving weight
// exactly β_j): 1-exp(-β·τ) for exponential ranks, min(1, β·τ) for
// priority ranks.  Summing weights over Dist <= d estimates the weighted
// neighborhood cardinality.
func (a *WeightedADS) HIPEntries() []WeightedEntry {
	w := hipWeightsWeighted(a.c.ranks(), a.c.beta, a.scheme, a.k, newKSmallest(a.k), make([]float64, 0, a.c.len()))
	return a.c.weighted(w)
}

// Validate checks the structural invariants: canonical order, bottom-k
// inclusion over the biased ranks, the owner first, alone at distance 0,
// and positive finite weights.  It returns the first violation found.
func (a *WeightedADS) Validate() error {
	if len(a.c.beta) != a.c.len() {
		return fmt.Errorf("core: WeightedADS(%d) has %d weights for %d entries", a.node, len(a.c.beta), a.c.len())
	}
	h := newKSmallest(a.k)
	for i, n := 0, a.c.len(); i < n; i++ {
		e := a.c.at(i)
		if i > 0 && !a.c.at(i-1).before(e) {
			return fmt.Errorf("core: WeightedADS(%d) entries %d,%d out of canonical order", a.node, i-1, i)
		}
		if b := a.c.beta[i]; !(b > 0) || math.IsInf(b, 1) {
			return fmt.Errorf("core: WeightedADS(%d) entry %d has weight %g, want finite and positive", a.node, i, b)
		}
		if h.size() >= a.k && e.Rank >= h.max() {
			return fmt.Errorf("core: WeightedADS(%d) entry %d (node %d, rank %g) fails inclusion test against threshold %g",
				a.node, i, e.Node, e.Rank, h.max())
		}
		h.offer(e.Rank)
	}
	if n := a.c.len(); n == 0 || a.c.node[0] != a.node || a.c.distAt(0) != 0 || n > 1 && a.c.distAt(1) == 0 {
		return fmt.Errorf("core: WeightedADS(%d) does not start with the owner alone at distance 0", a.node)
	}
	return nil
}

// EstimateNeighborhoodWeight returns the HIP estimate of
// Σ_{j: d_vj <= d} β(j).
func (a *WeightedADS) EstimateNeighborhoodWeight(d float64) float64 {
	return sumWithin(a.HIPEntries(), d)
}

// CheckWeights refuses node weights that are not positive and finite,
// the one rule every weighted build applies: a zero, negative or NaN β
// has no Exp(β) rank, and an infinite one gives rank 0.  The error names
// the first bad weight by its node ID, first+i for beta[i].
func CheckWeights(beta []float64, first int) error {
	for i, b := range beta {
		if !(b > 0) || math.IsInf(b, 1) {
			return fmt.Errorf("beta[%d] = %g, weights must be positive and finite", first+i, b)
		}
	}
	return nil
}

// BuildWeightedSetParallel computes the weighted bottom-k ADS of every
// node using PrunedDijkstra with ranks under the scheme — exponential, or
// the Section 9 alternative, Sequential Poisson (priority) ranks
// r(i) = r'(i)/β(i).  beta[v] is the weight of node v and must be
// positive and finite (CheckWeights).  workers bounds the PrunedDijkstra
// pass as BuildSetParallel's does: <= 0 means GOMAXPROCS, and the output
// is identical for every worker count.
func BuildWeightedSetParallel(g *graph.Graph, k int, seed uint64, beta []float64, scheme WeightScheme, workers int) (*Set, error) {
	p := Params{Kind: KindWeighted, Options: Options{K: k, Seed: seed}, Scheme: scheme}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(beta) != g.NumNodes() {
		return nil, fmt.Errorf("core: beta has %d weights for %d nodes", len(beta), g.NumNodes())
	}
	if err := CheckWeights(beta, 0); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return weightedSetFrom(g, p, beta, workers)
}

// weightedSetFrom runs one Algorithm 1 pass over the weight-biased ranks
// of p and freezes it with the per-entry weights.
func weightedSetFrom(g *graph.Graph, p Params, beta []float64, workers int) (*Set, error) {
	by := newRanker(p)
	lists := prunedDijkstraRun(g, runSpec{k: p.K, rank: func(v int32) float64 { return by.rank(v, beta[v]) }}, workers)
	var b []float64
	for _, l := range lists {
		for _, e := range l {
			b = append(b, beta[e.Node])
		}
	}
	f, err := freezeWhole(p, lists, b)
	if err != nil {
		return nil, err
	}
	return &Set{frame: f}, nil
}
