package core

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"

	"adsketch/internal/graph"
	"adsketch/internal/rank"
)

// Options configures ADS construction for a graph.
type Options struct {
	// K is the sketch parameter, in [1, MaxK].
	K int
	// Seed determines the shared random permutation; sketches built with
	// the same seed are coordinated.
	Seed uint64
	// BaseB, when > 1, rounds ranks down to powers b^-h (Sections 2 and
	// 5.6), trading estimator variance (factor (1+b)/2) for compact rank
	// representation.  Zero means full-precision ranks.
	BaseB float64
}

func (o Options) validate() error {
	if o.K < 1 || o.K > MaxK {
		return fmt.Errorf("core: Options.K = %d, must be in [1, %d]", o.K, MaxK)
	}
	if o.BaseB != 0 && !(o.BaseB > 1) { // !(>) rather than <=: NaN is not a base
		return fmt.Errorf("core: Options.BaseB = %g, must be > 1 (or 0 for full ranks)", o.BaseB)
	}
	return nil
}

// Source returns the rank source the options define.
func (o Options) Source() rank.Source { return rank.NewSource(o.Seed) }

// rankFn returns the rank function, with base-b rounding applied when
// configured.
func (o Options) rankFn() func(int32) float64 {
	by := newRanker(Params{Kind: KindUniform, Options: o})
	return func(v int32) float64 { return by.rank(v, 0) }
}

// Kind names the rank distribution of a set's sketches — the one thing,
// with the inclusion probability it implies, in which the three kinds of
// bottom-k sketch in canonical order differ.  Its values are the kind
// codes of the file header.
type Kind uint32

// Set kinds.
const (
	// KindUniform sets hold uniform ranks, at full precision or base b.
	KindUniform Kind = iota
	// KindWeighted sets hold the Section 9 weight-biased ranks.
	KindWeighted
	// KindApprox sets hold uniform ranks under the (1+ε)-approximate
	// construction of Section 3.
	KindApprox
)

// String returns the kind's name, the one the serving metadata carries.
func (k Kind) String() string {
	switch k {
	case KindUniform:
		return "uniform"
	case KindWeighted:
		return "weighted"
	case KindApprox:
		return "approximate"
	}
	return fmt.Sprintf("Kind(%d)", uint32(k))
}

// Params describes a sketch set: what the file header records of it.
// Options holds k and the seed, and the base of a uniform set — a weighted
// or approximate set has full-precision ranks — Scheme the weighted
// sampling scheme, and Eps the approximate distance slack; a field the kind
// does not use is zero.
type Params struct {
	Kind Kind
	Options
	Scheme WeightScheme
	Eps    float64
}

// Validate is the one check of a set's parameters, for the builders, the
// file readers and the distributed build alike.
func (p Params) Validate() error {
	if err := p.Options.validate(); err != nil {
		return err
	}
	// own is p less what the kind does not have.
	own := Params{Kind: p.Kind, Options: Options{K: p.K, Seed: p.Seed}}
	switch p.Kind {
	case KindUniform:
		own.BaseB = p.BaseB
	case KindWeighted:
		if p.Scheme != ExponentialWeights && p.Scheme != PriorityWeights {
			return fmt.Errorf("core: unknown weight scheme %d", int(p.Scheme))
		}
		own.Scheme = p.Scheme
	case KindApprox:
		if p.Eps < 0 || math.IsNaN(p.Eps) || math.IsInf(p.Eps, 1) {
			return fmt.Errorf("core: invalid epsilon %g", p.Eps)
		}
		own.Eps = p.Eps
	default:
		return fmt.Errorf("core: unknown set kind %d", uint32(p.Kind))
	}
	if p != own {
		return fmt.Errorf("core: %+v sets a field a %v set does not have", p, p.Kind)
	}
	return nil
}

// Ranker returns the rank function of a set of valid parameters p: the
// rank of node, of node weight beta on a weighted set, as every builder
// draws it.
func (p Params) Ranker() func(node int32, beta float64) float64 {
	by := newRanker(p)
	return by.rank
}

// Set holds the sketches of a node range of one graph — all of its nodes,
// or one partition of a split (partition.go) — of any kind, built with
// shared (coordinated) ranks and stored as one columnar frame; the
// sketches returned by Sketch/SketchOf/BottomK are lightweight views over
// the frame's columns.  Sketches are indexed locally: sketch v is owned by
// global node Lo()+v.
type Set struct {
	frame *Frame
	// index and count place the set in a split: partition index of a
	// count-way one.  count is 0 for a set not cut from a split, which is
	// partition 0 of 1 and writes no partition envelope.
	index, count int
}

// Params returns what the set is: its kind and parameters.
func (s *Set) Params() Params { return s.frame.p }

// K returns the sketch parameter.
func (s *Set) K() int { return s.frame.p.K }

// NumNodes returns the number of sketches: Hi() - Lo().
func (s *Set) NumNodes() int { return s.frame.n }

// Lo returns the global ID of the node owning sketch 0: 0 for a whole set.
func (s *Set) Lo() int32 { return s.frame.base }

// Hi returns the global ID one past the last node the set holds.
func (s *Set) Hi() int32 { return s.frame.base + int32(s.frame.n) }

// TotalNodes returns the node count of the whole set: what every entry's
// node ID is below, and NumNodes unless the set is a partition.
func (s *Set) TotalNodes() int { return s.frame.total }

// Part returns the set's place in a split: partition index of count.  A
// whole set is partition 0 of 1.
func (s *Set) Part() (index, count int) { return s.index, max(s.count, 1) }

// IsPartition reports whether the set was cut from a split
// (SplitSketchSet, FreezePartition, a partition file) — even a 1-way one
// — and so writes the partition envelope.
func (s *Set) IsPartition() bool { return s.count > 0 }

// SketchOf returns node v's sketch view, of the type the kind makes it:
// *ADS for uniform and approximate sets, *WeightedADS for weighted ones.
func (s *Set) SketchOf(v int32) Sketch { return s.frame.viewSketch(int(v)) }

// BottomK returns node v's sketch as a bottom-k ADS; it panics on a
// weighted set.
func (s *Set) BottomK(v int32) *ADS { return s.frame.viewSketch(int(v)).(*ADS) }

// AppendEntries appends a bottom-k set's node v's entries to dst in
// canonical order, decoded in one allocation, and returns the slice.
func (s *Set) AppendEntries(dst []Entry, v int32) []Entry {
	c := s.frame.colsAt(int(v))
	dst = slices.Grow(dst, c.len())
	c.sd.Runs(c.ends, func(from, to int, d float64) bool {
		for i := from; i < to; i++ {
			dst = append(dst, Entry{Node: c.node[i], Dist: d, Rank: c.rankAt(i)})
		}
		return true
	})
	return dst
}

// Index builds local node v's columnar HIP query index over the frame's
// columns — what batch serving caches per node on first query.
func (s *Set) Index(v int32) *HIPIndex { return s.frame.Index(v) }

// TotalEntries returns the summed entry count over all sketches — the
// quantity Lemma 2.2 predicts as ~n·k(1 + ln n - ln k) for bottom-k: a
// count the set keeps, not a scan.
func (s *Set) TotalEntries() int { return s.frame.totalEntries() }

// WriteTo serializes the set in the version-3 format (framecodec.go), a
// partition behind the partition envelope — the shard file an
// mmap-serving worker opens.  It implements io.WriterTo; the returned
// count is the number of bytes written.
func (s *Set) WriteTo(w io.Writer) (int64, error) { return writeFrameV3(w, s) }

// BuildSet computes the (forward) ADS of every node of g with Algorithm 1
// (PrunedDijkstra).  For directed graphs pass g for forward sketches
// (distances measured from the sketch owner) or g.Transpose() for backward
// sketches.
func BuildSet(g *graph.Graph, o Options) (*Set, error) {
	return BuildSetParallel(g, o, 0)
}

// BuildSetParallel is BuildSet with an explicit worker bound for the
// candidate batches: workers <= 0 means GOMAXPROCS; 1 is the calling
// goroutine.  The output is identical for every worker count.
func BuildSetParallel(g *graph.Graph, o Options, workers int) (*Set, error) {
	p := Params{Kind: KindUniform, Options: o}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var f *Frame
	var err error
	if !g.Weighted() {
		f, err = hopFrame(g, p, workers)
	} else {
		f, err = freezeWhole(p, prunedDijkstraRun(g, runSpec{k: p.K, rank: o.rankFn()}, workers), nil)
	}
	if err != nil {
		return nil, err
	}
	return &Set{frame: f}, nil
}

// runSpec describes one construction pass: a bottom-k sample under a
// single rank function.
type runSpec struct {
	k    int
	rank func(int32) float64
}

// sameRankEnd returns the end of the run of equal-rank candidates that
// starts at cands[i].
func sameRankEnd(cands []int32, ranks []float64, i int) int {
	j := i + 1
	for j < len(cands) && ranks[cands[j]] == ranks[cands[i]] {
		j++
	}
	return j
}

// passWorkers resolves a pass's worker bound over n nodes: <= 0 means
// GOMAXPROCS, and no more workers than nodes, but at least one.
func passWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n))
}

// prunedDijkstraRun is Algorithm 1 over one runSpec pass, its entry lists
// with ranks attached: candidates are processed in increasing rank order,
// each running a pruned traversal of the transpose graph, so that reaching
// v at distance d means d = d(v -> candidate) in g — a BFS over packed keys
// when g is unweighted (runHops), a Dijkstra over float keys otherwise
// (runFloats).  With one worker the candidate loop runs on the calling
// goroutine; with more (workers <= 0 means GOMAXPROCS) it is runBatches,
// whose output is the same.
func prunedDijkstraRun(g *graph.Graph, s runSpec, workers int) [][]Entry {
	n := g.NumNodes()
	cands, ranks := rank.Order(n, s.rank)
	workers = passWorkers(workers, n)
	if g.Weighted() {
		return runFloats(g.Transpose(), cands, ranks, s.k, workers)
	}
	ps, _ := runHops(g.Transpose(), cands, ranks, s.k, workers)
	return ps.lists(func(key uint64) Entry {
		u := keyNode(key)
		return Entry{Node: u, Dist: float64(key >> 32), Rank: ranks[u]}
	})
}
