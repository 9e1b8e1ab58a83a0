package core

import (
	"fmt"
	"math"
	"sort"
)

// Cross-sketch applications enabled by coordination (Section 1): because
// all sketches share one rank permutation, the bottom-k MinHash sketch of
// any neighborhood union is computable from the per-node sketches, giving
// neighborhood similarity [Cohen et al. 2013] and influence-style union
// cardinalities [Du et al. 2013, Cohen et al. 2014] without touching the
// graph again.

// MinHashEntriesWithin extracts the bottom-k MinHash sketch of N_d(owner)
// with node identities: the (up to) k lowest-rank entries among those at
// distance <= d, ordered by increasing rank.
func (a *ADS) MinHashEntriesWithin(d float64) []Entry {
	// Collect the k smallest-rank entries of the prefix.
	prefix := a.c.entries()[:a.SizeWithin(d)]
	sort.Slice(prefix, func(i, j int) bool { return prefix[i].Rank < prefix[j].Rank })
	if len(prefix) > a.k {
		prefix = prefix[:a.k]
	}
	return prefix
}

// NeighborhoodJaccard estimates the Jaccard similarity
// |N_da(a) ∩ N_db(b)| / |N_da(a) ∪ N_db(b)| of two neighborhoods from
// coordinated bottom-k sketches: the k lowest-rank members of the union
// are a uniform sample of it, and each sampled member is checked against
// both MinHash sketches.
func NeighborhoodJaccard(a *ADS, da float64, b *ADS, db float64) float64 {
	if a.k != b.k {
		panic(fmt.Sprintf("core: Jaccard across sketches with k=%d and k=%d", a.k, b.k))
	}
	ea := a.MinHashEntriesWithin(da)
	eb := b.MinHashEntriesWithin(db)
	inA := make(map[int32]bool, len(ea))
	for _, e := range ea {
		inA[e.Node] = true
	}
	inB := make(map[int32]bool, len(eb))
	for _, e := range eb {
		inB[e.Node] = true
	}
	union := mergeBottomK(a.k, ea, eb)
	if len(union) == 0 {
		return 0
	}
	both := 0
	for _, e := range union {
		if inA[e.Node] && inB[e.Node] {
			both++
		}
	}
	return float64(both) / float64(len(union))
}

// mergeBottomK returns the k lowest-rank distinct entries of the union of
// two rank-sorted entry lists.
func mergeBottomK(k int, a, b []Entry) []Entry {
	out := make([]Entry, 0, k)
	seen := make(map[int32]bool, k)
	i, j := 0, 0
	for len(out) < k && (i < len(a) || j < len(b)) {
		var e Entry
		if j >= len(b) || (i < len(a) && a[i].Rank <= b[j].Rank) {
			e = a[i]
			i++
		} else {
			e = b[j]
			j++
		}
		if !seen[e.Node] {
			seen[e.Node] = true
			out = append(out, e)
		}
	}
	return out
}

// UnionNeighborhoodSketches estimates |∪ N_d| over the given coordinated
// bottom-k sketches (merged in slice order): merge the per-sketch MinHash
// sketches of N_d and apply the basic bottom-k estimator to the merged
// sketch.  The sketches may come from anywhere — one set, a partition, or
// fetched from remote shards — as long as they share one rank permutation
// and the same k.
func UnionNeighborhoodSketches(k int, sketches []*ADS, d float64) float64 {
	var union []Entry
	for _, a := range sketches {
		union = mergeBottomK(k, union, a.MinHashEntriesWithin(d))
	}
	if len(union) < k {
		return float64(len(union))
	}
	return float64(k-1) / union[k-1].Rank
}

// UnionNeighborhoodEstimate estimates |∪_s N_d(s)| over a set of seed
// nodes from their coordinated bottom-k sketches.  This is the timed-
// influence primitive ([14] in the paper): the number of nodes within
// distance d of at least one seed.
func UnionNeighborhoodEstimate(set *Set, seeds []int32, d float64) float64 {
	if len(seeds) == 0 {
		return 0
	}
	sketches := make([]*ADS, len(seeds))
	for i, s := range seeds {
		sketches[i] = set.coordinated(s)
	}
	return UnionNeighborhoodSketches(set.K(), sketches, d)
}

// GreedyInfluenceSketches greedily picks numSeeds nodes from candidates
// maximizing the estimated union neighborhood |∪_s N_d(s)|, resolving
// each node's coordinated bottom-k sketch through lookup — the location-
// independent core of GreedyInfluenceSeeds, usable when the sketches are
// scattered across shards.
func GreedyInfluenceSketches(k int, lookup func(int32) *ADS, candidates []int32, numSeeds int, d float64) ([]int32, float64) {
	var seeds []int32
	var sketches []*ADS
	chosen := make(map[int32]bool)
	best := 0.0
	for len(seeds) < numSeeds {
		var bestNode int32 = -1
		bestGain := best
		for _, c := range candidates {
			if chosen[c] {
				continue
			}
			est := UnionNeighborhoodSketches(k, append(sketches, lookup(c)), d)
			if est > bestGain || bestNode < 0 {
				bestGain = est
				bestNode = c
			}
		}
		if bestNode < 0 {
			break
		}
		seeds = append(seeds, bestNode)
		sketches = append(sketches, lookup(bestNode))
		chosen[bestNode] = true
		best = bestGain
	}
	return seeds, best
}

// GreedyInfluenceSeeds greedily picks numSeeds nodes maximizing the
// estimated union neighborhood |∪_s N_d(s)| — the classic influence-
// maximization heuristic evaluated entirely on sketches.  candidates
// limits the pool considered per round (pass nil for all nodes).
func GreedyInfluenceSeeds(set *Set, candidates []int32, numSeeds int, d float64) ([]int32, float64) {
	if candidates == nil {
		candidates = make([]int32, set.NumNodes())
		for i := range candidates {
			candidates[i] = int32(i)
		}
	}
	return GreedyInfluenceSketches(set.K(), set.coordinated, candidates, numSeeds, d)
}

// coordinated returns node v's sketch of a uniform bottom-k set, the
// coordinated sketches union estimates combine; it panics on any other.
func (s *Set) coordinated(v int32) *ADS {
	if s.Params().Kind != KindUniform {
		panic("core: union estimates require uniform bottom-k sketches")
	}
	return s.BottomK(v)
}

// DistanceUpperBound estimates an upper bound on d(a.owner, b.owner) from
// two coordinated forward/backward sketches: any node x sampled in both
// gives the triangle bound d(a,x) + d(x,b), and the minimum over the
// common samples is returned (+Inf if the sketches share no node).  With
// forward ADS(a) and backward ADS(b) (built on the transpose) this is the
// classic sketch-based distance oracle of coordinated samples: low-rank
// nodes act as beacons present in most sketches.
func DistanceUpperBound(a, b *ADS) float64 {
	distA := make(map[int32]float64, a.Size())
	for i, dist := range a.c.dists() {
		node := a.c.node[i]
		if d, ok := distA[node]; !ok || dist < d {
			distA[node] = dist
		}
	}
	best := math.Inf(1)
	for i, dist := range b.c.dists() {
		if d, ok := distA[b.c.node[i]]; ok && d+dist < best {
			best = d + dist
		}
	}
	return best
}
