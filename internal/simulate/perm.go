package simulate

import (
	"fmt"
	"sort"
)

// PermutationEstimator is the Section 5.4 cardinality estimator for
// bottom-k sketches whose ranks form a random permutation σ of [1..n]
// (rather than i.i.d. uniform values).  Permutation ranks dominate random
// ranks in information content, and the estimator is markedly tighter once
// the estimated cardinality exceeds ~0.2n.
//
// Elements are offered in canonical (distance/arrival) order with their
// permutation rank.  The estimator maintains the bottom-k of the ranks and
// a running estimate ŝ:
//
//   - the first k updates have weight 1 (ŝ is exact while s <= k);
//   - a later update, arriving when the k-th smallest stored rank is μ,
//     carries weight w = (n-ŝ+1)/(μ-k+1), the plug-in estimate of the
//     expected number of distinct elements scanned since the previous
//     update (a negative-hypergeometric mean);
//   - once the sketch holds exactly the ranks {1..k} it is saturated (no
//     further updates are possible) and the estimate is corrected to
//     ŝ(k+1)/k - 1 to account for elements beyond the last update.
type PermutationEstimator struct {
	n     int              // domain size (permutation length)
	k     int              // sketch size
	ranks []int            // bottom-k permutation ranks, ascending
	sHat  float64          // running estimate
	seen  map[int]struct{} // guards against re-offering a rank
}

// NewPermutationEstimator returns an estimator for permutation ranks over
// [1..n] with sketch size k.
func NewPermutationEstimator(n, k int) *PermutationEstimator {
	if k < 1 || n < 1 {
		panic(fmt.Sprintf("simulate: PermutationEstimator(n=%d, k=%d)", n, k))
	}
	return &PermutationEstimator{n: n, k: k, seen: make(map[int]struct{}, k)}
}

// Offer presents the permutation rank (in [1..n]) of the next distinct
// element and reports whether the sketch was updated.  Offering the same
// rank twice is an error (ranks are a permutation of distinct elements).
func (p *PermutationEstimator) Offer(sigma int) bool {
	if sigma < 1 || sigma > p.n {
		panic(fmt.Sprintf("simulate: permutation rank %d outside [1,%d]", sigma, p.n))
	}
	if _, dup := p.seen[sigma]; dup {
		panic(fmt.Sprintf("simulate: permutation rank %d offered twice", sigma))
	}
	if len(p.ranks) < p.k {
		// Exact phase: every element updates the sketch with weight 1.
		p.seen[sigma] = struct{}{}
		p.insert(sigma)
		p.sHat++
		return true
	}
	mu := p.ranks[p.k-1]
	if sigma >= mu {
		return false // not an update
	}
	p.seen[sigma] = struct{}{}
	// Weight of the elements scanned since the previous update, inclusive.
	w := (float64(p.n) - p.sHat + 1) / float64(mu-p.k+1)
	p.sHat += w
	p.insert(sigma)
	return true
}

func (p *PermutationEstimator) insert(sigma int) {
	i := sort.SearchInts(p.ranks, sigma)
	p.ranks = append(p.ranks, 0)
	copy(p.ranks[i+1:], p.ranks[i:])
	p.ranks[i] = sigma
	if len(p.ranks) > p.k {
		p.ranks = p.ranks[:p.k]
	}
}

// Saturated reports whether the sketch holds exactly the permutation ranks
// {1..k}, after which no update can occur.
func (p *PermutationEstimator) Saturated() bool {
	return len(p.ranks) == p.k && p.ranks[p.k-1] == p.k
}

// Estimate returns the current cardinality estimate, applying the
// saturation correction when the sketch is saturated.
func (p *PermutationEstimator) Estimate() float64 {
	if p.Saturated() {
		return p.sHat*float64(p.k+1)/float64(p.k) - 1
	}
	return p.sHat
}
