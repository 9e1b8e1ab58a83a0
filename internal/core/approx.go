package core

import (
	"fmt"
	"math"

	"adsketch/internal/graph"
	"adsketch/internal/rank"
)

// (1+ε)-approximate ADS (Section 3).  With LOCALUPDATES, adversarial
// weighted graphs can force a linear number of insert-then-supersede
// updates per node; the paper's remedy is to only accept an insertion when
// it beats the threshold with slack ε on distance:
//
//	insert (x, a)  iff  r(x) < kth{ r(y) | y ∈ ADS, d_y <= a(1+ε) },
//
// which bounds the updates per entry by log_{1+ε}(n·w_max/w_min).  The
// paper remarks (without proof) that the result satisfies
// r(v) > kth{entries within (1+ε)d_uv} for every absent v.  Under
// message passing, a rejected insertion is not re-propagated, so the ε
// slack can compound along a path of rejections; the invariant that holds
// robustly is the same statement with slack (1+ε)^c for a small constant
// c depending on the rejection-chain depth.  CheckApproxSlack measures
// the worst observed slack exactly, and the tests pin it; in practice it
// stays very close to the single-(1+ε) the paper states.

// ApproxSet holds (1+ε)-approximate bottom-k sketches, as views over one
// shared columnar frame.
type ApproxSet struct {
	frame *Frame
}

// K returns the sketch parameter.
func (s *ApproxSet) K() int { return s.frame.opts.K }

// Seed returns the seed of the rank permutation (0 for a set loaded from
// a file that did not record it).
func (s *ApproxSet) Seed() uint64 { return s.frame.opts.Seed }

// Epsilon returns the distance slack.
func (s *ApproxSet) Epsilon() float64 { return s.frame.eps }

// NumNodes returns the number of sketches.
func (s *ApproxSet) NumNodes() int { return s.frame.n }

// Sketch returns node v's approximate sketch view.  The entries satisfy
// the relaxed invariant; HIP weights computed from them estimate
// cardinalities of neighborhoods at distance known up to (1+ε).
func (s *ApproxSet) Sketch(v int32) *ADS { return s.frame.viewADS(int(v)) }

// SketchOf returns node v's sketch through the flavor-agnostic query
// interface shared by all set kinds.
func (s *ApproxSet) SketchOf(v int32) Sketch { return s.frame.viewADS(int(v)) }

// Index returns local node v's columnar HIP query index, sharing the
// frame's index arena.
func (s *ApproxSet) Index(v int32) *HIPIndex { return s.frame.Index(v) }

// TotalEntries sums entry counts.
func (s *ApproxSet) TotalEntries() int { return s.frame.totalEntries() }

// BuildApproxSet computes (1+ε)-approximate bottom-k sketches with the
// LocalUpdates message-passing scheme.
func BuildApproxSet(g *graph.Graph, k int, seed uint64, eps float64) (*ApproxSet, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1")
	}
	if eps < 0 {
		return nil, fmt.Errorf("core: epsilon must be >= 0")
	}
	src := rank.NewSource(seed)
	kern := NewOfferKernel(k)
	spec := runSpec{k: k, rank: func(v int32) float64 { return src.Rank(int64(v)) }}
	out := messageRounds(g, spec, func(list []Entry, e Entry) ([]Entry, bool) {
		return kern.OfferApprox(list, e, eps)
	})
	return &ApproxSet{frame: freezeWhole(kindApprox, Options{K: k, Seed: seed}, 0, eps, 1, out)}, nil
}

// CheckApproxSlack measures how far node u's approximate sketch is from
// the exact ADS semantics: for every node v absent from ADS(u), it finds
// the smallest slack s >= 1 such that r(v) >= k-th smallest rank among
// entries with distance <= s·d_uv, and returns the maximum over all
// absent v.  A return of 1 means the sketch satisfies the exact-ADS
// exclusion rule; the paper's remark corresponds to a bound of 1+ε.
func CheckApproxSlack(g *graph.Graph, set *ApproxSet, u int32, seed uint64) float64 {
	src := rank.NewSource(seed)
	a := set.Sketch(u)
	entries := a.Entries() // one materialized copy, reused across the scan
	members := make(map[int32]bool, a.Size())
	for _, e := range entries {
		members[e.Node] = true
	}
	worst := 1.0
	h := newMaxHeap(set.K())
	for _, nd := range graph.NearestOrder(g, u) {
		if members[nd.Node] || nd.Dist == 0 {
			continue
		}
		r := src.Rank(int64(nd.Node))
		// Find the smallest window within which k entries of smaller rank
		// exist; the needed slack is that window over the true distance.
		h.reset()
		justified := false
		for _, e := range entries { // canonical order = ascending dist
			if e.Rank < r {
				h.offer(e.Rank)
			}
			if h.size() >= set.K() {
				if s := e.Dist / nd.Dist; s > worst {
					worst = s
				}
				justified = true
				break
			}
		}
		if !justified {
			// No window justifies the exclusion at all.
			return math.Inf(1)
		}
	}
	return worst
}
