// Package stream holds the edge and element streams the ingest tier and
// the load generators replay: edge-insertion sources with Replay, and
// Zipf-distributed element IDs.
package stream

import (
	"fmt"

	"adsketch/internal/rank"
)

// Edge-stream abstraction for the ingest tier: an EdgeSource yields edge
// insertions one at a time, and Replay drives a sink (the incremental
// sketch maintainer) from one.  Sources are deterministic where seeded, so
// an ingest replay is reproducible end to end.

// Edge is one edge-insertion event.  W == 0 means unit length (an
// unweighted edge); any other W is an explicit length, which must be
// positive and finite.
type Edge struct {
	U, V int32
	W    float64
}

// Unit reports whether the edge carries no explicit length.
func (e Edge) Unit() bool { return e.W == 0 }

// EdgeSource yields the edges of a stream in order.  Next returns false
// when the stream is exhausted.
type EdgeSource interface {
	Next() (Edge, bool)
}

// SliceSource replays a fixed edge slice.
type SliceSource struct {
	edges []Edge
	pos   int
}

// NewSliceSource returns a source over the given edges (not copied).
func NewSliceSource(edges []Edge) *SliceSource { return &SliceSource{edges: edges} }

// Next yields the next edge.
func (s *SliceSource) Next() (Edge, bool) {
	if s.pos >= len(s.edges) {
		return Edge{}, false
	}
	e := s.edges[s.pos]
	s.pos++
	return e, true
}

// Reset rewinds the source to the start of the stream.
func (s *SliceSource) Reset() { s.pos = 0 }

// RandomSource is a deterministic random edge stream over a fixed node-ID
// range: the same (nodes, weighted, seed) triple always yields the same
// edges, which is what replay-determinism tests and benchmarks need.
// Weighted streams draw lengths uniformly from [0.5, 1.5).
type RandomSource struct {
	nodes    int32
	weighted bool
	rng      *rank.RNG
	remain   int
}

// NewRandomSource returns a source yielding count random edges over node
// IDs [0, nodes).
func NewRandomSource(nodes, count int, weighted bool, seed uint64) (*RandomSource, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("stream: NewRandomSource needs at least one node, got %d", nodes)
	}
	if count < 0 {
		return nil, fmt.Errorf("stream: negative edge count %d", count)
	}
	return &RandomSource{
		nodes:    int32(nodes),
		weighted: weighted,
		rng:      rank.NewRNG(seed),
		remain:   count,
	}, nil
}

// Next yields the next random edge.
func (s *RandomSource) Next() (Edge, bool) {
	if s.remain <= 0 {
		return Edge{}, false
	}
	s.remain--
	e := Edge{
		U: int32(s.rng.Float64() * float64(s.nodes)),
		V: int32(s.rng.Float64() * float64(s.nodes)),
	}
	if s.weighted {
		e.W = 0.5 + s.rng.Float64()
	}
	return e, true
}

// Replay drains a source into apply, stopping at the first error, and
// returns how many edges were applied.
func Replay(src EdgeSource, apply func(Edge) error) (int, error) {
	n := 0
	for {
		e, ok := src.Next()
		if !ok {
			return n, nil
		}
		if err := apply(e); err != nil {
			return n, err
		}
		n++
	}
}
