package adsketch

import (
	"context"
	"fmt"
	"math"

	"adsketch/internal/core"
	"adsketch/internal/query"
)

// Engine answers batch, context-aware queries over a sketch set.  It is
// the serving layer for heavy query traffic: each node's HIP query index
// (HIPIndex) is built lazily on first touch and cached, so repeated
// queries against a node cost one binary search (neighborhood sizes) or
// O(1) (closeness, harmonic) instead of re-deriving the sketch's adjusted
// weights; batches are scanned in chunks, across GOMAXPROCS workers when
// they span more than one, and honor context cancellation.  A warm lookup
// is one atomic load, so concurrent batches share the cache without
// contending on it.
//
// An Engine serves a sketch set: a whole one, or one node-range partition
// of a split set, in which case it answers for the global node IDs it
// owns and rejects the rest — the worker half of the scatter-gather
// serving tier whose coordinator half is Coordinator.
//
// Engine.Do / Engine.DoBatch dispatch the typed wire protocol (Request /
// Response); the named methods below are thin wrappers over the same
// dispatch, so a query served over a transport is bit-for-bit identical
// to the direct method call.  An Engine is safe for concurrent use by
// multiple goroutines, and its estimates equal the per-call estimators
// (Centrality, EstimateNeighborhoodHIP, EstimateQ) on the same sketches.
type Engine struct {
	set   *Set
	meta  ShardMeta // the range served: local sketch i is global node meta.Lo+i
	cache *query.IndexCache
}

// NewEngine wraps a sketch set (of any kind: uniform, weighted, or
// approximate) for batch serving.  Over one partition of a split set it
// answers every per-node protocol query for the global node IDs in
// [set.Lo(), set.Hi()), rejects nodes it does not own, and evaluates topk
// over its own nodes only — the partial a Coordinator merges into the
// global ranking.
func NewEngine(set *Set) (*Engine, error) {
	if set == nil {
		return nil, fmt.Errorf("%w: nil sketch set", ErrBadOption)
	}
	e := &Engine{set: set}
	p := set.Params()
	index, count := set.Part()
	e.meta = ShardMeta{Index: index, Count: count, Lo: set.Lo(), Hi: set.Hi(), TotalNodes: set.TotalNodes(),
		K: p.K, Kind: p.Kind.String()}
	// Cache slots are local indices: global node v lives in slot v - Lo,
	// built on the node's first query.
	e.cache = query.NewIndexCache(set.NumNodes(), set.Index)
	return e, nil
}

// NewPartitionedEngine splits the set by node ID into the given number
// of partitions and returns a Coordinator serving them through one
// in-process shard Engine each — single-process scatter-gather, whose
// answers are bit-for-bit identical to one Engine over the whole set.
// The partitions alias the set's sketches, so the split costs no sketch
// memory; the per-partition engines keep independent index caches whose
// combined statistics Coordinator.CacheStats reports.
func NewPartitionedEngine(set *Set, partitions int) (*Coordinator, error) {
	parts, err := SplitSketchSet(set, partitions)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadOption, err)
	}
	backends := make([]ShardBackend, len(parts))
	for i, p := range parts {
		eng, err := NewEngine(p)
		if err != nil {
			return nil, err
		}
		backends[i] = eng
	}
	return NewCoordinator(backends)
}

// Set returns the underlying sketch set: the partition, for a shard
// engine.
func (e *Engine) Set() *Set { return e.set }

// Meta identifies what the engine serves: its node range, partition
// position, sketch parameter, and set kind.  A whole-set engine reports
// the single partition of a 1-way split.
func (e *Engine) Meta() ShardMeta { return e.meta }

// checkNodes validates queried nodes against the global node space and,
// for a shard engine, against the owned range.
func (e *Engine) checkNodes(nodes []int32) error {
	m := &e.meta
	if err := query.CheckNodes(m.TotalNodes, nodes); err != nil {
		return err
	}
	if m.Lo != 0 || int(m.Hi) != m.TotalNodes {
		for _, v := range nodes {
			if v < m.Lo || v >= m.Hi {
				return fmt.Errorf("node %d not owned by shard %d/%d (nodes [%d, %d))",
					v, m.Index, m.Count, m.Lo, m.Hi)
			}
		}
	}
	return nil
}

// Index returns node v's cached HIP query index, building it on first
// use.  The index is immutable and safe to share.  v is a global node
// ID; a shard engine serves only the nodes it owns.
func (e *Engine) Index(v int32) (*HIPIndex, error) {
	if err := e.checkNodes([]int32{v}); err != nil {
		return nil, err
	}
	e.cache.AddLookups(1)
	return e.cache.Get(v - e.meta.Lo), nil
}

// CacheStats is a point-in-time snapshot of the Engine's index-cache
// counters, shaped for JSON serving.
type CacheStats = query.CacheStats

// CacheStats snapshots the index-cache counters (slots, built indices,
// hits, misses) — the payload of the adsserver /statsz endpoint.
func (e *Engine) CacheStats() CacheStats { return e.cache.Stats() }

// IndexBytes returns the heap held by the HIP indexes the engine has
// built — serving memory that the sketch file's size does not show.  It
// grows with the nodes queried: 0 on a fresh engine, about 1.2 KB per
// node at k=16 once every node has been.
func (e *Engine) IndexBytes() int64 { return e.cache.Bytes() }

// batch evaluates f on the cached index of every queried node in a
// chunked scan.  On context cancellation the partial results are
// discarded.
func (e *Engine) batch(ctx context.Context, nodes []int32, f func(*core.HIPIndex) float64) ([]float64, error) {
	if err := e.checkNodes(nodes); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	out := make([]float64, len(nodes))
	err := query.ForEach(ctx, 0, len(nodes), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = f(e.cache.Get(nodes[i] - e.meta.Lo))
		}
		e.cache.AddLookups(hi - lo)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Closeness returns the HIP estimate of the classic closeness centrality
// 1/Σ_j d_vj for each queried node (0 for isolated nodes).
func (e *Engine) Closeness(ctx context.Context, nodes ...int32) ([]float64, error) {
	resp, err := e.Do(ctx, Request{Closeness: &ClosenessQuery{Nodes: nodes}})
	if err != nil {
		return nil, err
	}
	return resp.Scores, nil
}

// Harmonic returns the HIP estimate of Σ_{j != v} 1/d_vj for each queried
// node.
func (e *Engine) Harmonic(ctx context.Context, nodes ...int32) ([]float64, error) {
	resp, err := e.Do(ctx, Request{Harmonic: &HarmonicQuery{Nodes: nodes}})
	if err != nil {
		return nil, err
	}
	return resp.Scores, nil
}

// NeighborhoodSizes returns the HIP estimate of n_d(v) = |N_d(v)| (or the
// weighted cardinality, for weighted sets) for each queried node.  An
// infinite d counts everything reachable.
func (e *Engine) NeighborhoodSizes(ctx context.Context, d float64, nodes ...int32) ([]float64, error) {
	q := &NeighborhoodQuery{Radius: d, Nodes: nodes}
	if math.IsInf(d, 1) {
		q.Radius, q.Unbounded = 0, true
	}
	resp, err := e.Do(ctx, Request{Neighborhood: q})
	if err != nil {
		return nil, err
	}
	return resp.Scores, nil
}

// EstimateQBatch returns the HIP estimate of Q_g(v) = Σ_j g(j, d_vj)
// (equation (5) of the paper) for each queried node.  g must be safe for
// concurrent invocation.  An arbitrary Go function cannot cross a wire,
// so this is the one batch query outside the Request/Response protocol;
// the protocol's named kernels are served by CentralityKernelQuery.
func (e *Engine) EstimateQBatch(ctx context.Context, g func(node int32, dist float64) float64, nodes ...int32) ([]float64, error) {
	return e.batch(ctx, nodes, func(x *core.HIPIndex) float64 { return x.EstimateQ(g) })
}

// TopCloseness returns the estimated top-n nodes by closeness centrality,
// highest first (ties broken by node ID), scoring every node of the set
// in a chunked scan.  A shard engine ranks only the nodes it owns.
func (e *Engine) TopCloseness(ctx context.Context, n int) ([]Ranked, error) {
	return e.top(ctx, MetricCloseness, n)
}

// TopHarmonic returns the estimated top-n nodes by harmonic centrality.
func (e *Engine) TopHarmonic(ctx context.Context, n int) ([]Ranked, error) {
	return e.top(ctx, MetricHarmonic, n)
}

func (e *Engine) top(ctx context.Context, metric string, n int) ([]Ranked, error) {
	// TopKQuery rejects K < 1 on the wire; the method keeps the looser
	// "empty ranking" semantics.  Overlong n is clamped by topBy.
	if n <= 0 || e.set.NumNodes() == 0 {
		return nil, nil
	}
	resp, err := e.Do(ctx, Request{TopK: &TopKQuery{Metric: metric, K: n}})
	if err != nil {
		return nil, err
	}
	return resp.Ranking, nil
}

// topBy scores every owned node in a chunked scan, then selects the
// top n with a bounded min-heap — O(total·log n) selection instead of
// sorting the full score vector, which matters when serving top-10
// queries over millions of nodes.  Ranked nodes carry global IDs.
func (e *Engine) topBy(ctx context.Context, n int, score func(*core.HIPIndex) float64) ([]Ranked, error) {
	local := e.set.NumNodes()
	if n > local {
		n = local
	}
	scores := make([]float64, local)
	err := query.ForEach(ctx, 0, local, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			scores[i] = score(e.cache.Get(int32(i)))
		}
		e.cache.AddLookups(hi - lo)
	})
	if err != nil {
		return nil, err
	}
	top := query.TopK(n, scores)
	out := make([]Ranked, len(top))
	for i, v := range top {
		out[i] = Ranked{Node: e.meta.Lo + int32(v), Score: scores[v]}
	}
	return out, nil
}
