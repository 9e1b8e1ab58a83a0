// Package rank provides the random-rank substrate that All-Distances
// Sketches and MinHash sketches are defined over.
//
// The paper (Cohen, "All-Distances Sketches, Revisited", 2014) specifies a
// sketch with respect to one or more random permutations of the node domain,
// realized by assigning each node a random rank r(v) ~ U[0,1].  This package
// supplies deterministic, seedable implementations of:
//
//   - uniform ranks in the open interval (0,1) derived from a 64-bit mixing
//     hash of the node ID (so "the same random permutation" can be shared by
//     all sketches, giving the coordination property of Section 2);
//   - exponentially distributed and priority ranks with a rate parameter,
//     used for non-uniform node weights (Section 9);
//   - base-b discretized ranks (Section 2 "Base-b ranks" and Section 5.6);
//   - a deterministic generator (RNG) for graph generators and
//     experiments, with explicit random permutations of [n] for the
//     permutation estimator of Section 5.4.
//
// The k independent permutations of k-mins sketches and the buckets of
// k-partition ones are derived in package lab, which alone builds them.
//
// All functions are pure: the rank of a node depends only on (seed, node),
// which makes sketch construction reproducible and coordinated across
// machines without shared state.
package rank

import (
	"cmp"
	"math"
	"slices"
)

// mix64 is the splitmix64 finalizer.  It is a bijection on uint64 with good
// avalanche behavior, sufficient for the "random hash function" assumption
// the paper makes (Section 2: "This can be achieved using random hash
// functions").
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash64 mixes a seed and a key into a 64-bit value.
func Hash64(seed, key uint64) uint64 {
	return mix64(seedMix(seed) ^ mix64(key))
}

// seedMix is Hash64's seed half.
func seedMix(seed uint64) uint64 { return mix64(seed ^ 0x8e9d3c1f5b7a2d46) }

// unitFloat maps a uint64 to the open interval (0,1).  The low 11 bits are
// discarded and the result is offset by half an ulp so that 0 and 1 are
// never produced; ranks of 0 or 1 would break inverse-probability estimates.
func unitFloat(x uint64) float64 {
	return (float64(x>>11) + 0.5) * (1.0 / (1 << 53))
}

// Source generates coordinated random ranks for a domain of elements.
// A Source is defined entirely by its seed; two Sources with the same seed
// produce identical ranks, which is how sketches of different sets (or
// different nodes' neighborhoods) are coordinated.
type Source struct {
	seed uint64
	mix  uint64 // seedMix(seed), which Rank would otherwise recompute per call
}

// NewSource returns a rank source with the given seed.
func NewSource(seed uint64) Source { return Source{seed: seed, mix: seedMix(seed)} }

// Seed reports the seed of the source.
func (s Source) Seed() uint64 { return s.seed }

// Rank returns the uniform rank r(v) ~ U(0,1) of element v under the
// source's (single) permutation.
func (s Source) Rank(v int64) float64 {
	return unitFloat(mix64(s.mix ^ mix64(uint64(v))))
}

// ExpRank returns an exponentially distributed rank with rate weight,
// derived from the same underlying permutation as Rank: y = -ln(1-u)/weight.
// With weight 1 this is the monotone transform the paper uses throughout the
// analysis; with weight beta(v) it implements the non-uniform node weights of
// Section 9 (heavier nodes get stochastically smaller ranks).
func (s Source) ExpRank(v int64, weight float64) float64 {
	u := s.Rank(v)
	return -math.Log1p(-u) / weight
}

// PriorityRank returns r'(v)/weight, the Sequential Poisson (priority)
// sampling rank discussed as the bottom-k alternative in Section 9.
func (s Source) PriorityRank(v int64, weight float64) float64 {
	return s.Rank(v) / weight
}

// Order returns nodes 0..n-1 sorted by (rank, node) — a set's rank order,
// the order Algorithm 1 takes its candidates in — and the rank of every
// node, which of gives.
func Order(n int, of func(v int32) float64) (perm []int32, ranks []float64) {
	perm, ranks = make([]int32, n), make([]float64, n)
	for v := range perm {
		perm[v], ranks[v] = int32(v), of(int32(v))
	}
	slices.SortFunc(perm, func(a, b int32) int { return cmp.Or(cmp.Compare(ranks[a], ranks[b]), cmp.Compare(a, b)) })
	return perm, ranks
}
