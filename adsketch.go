// Package adsketch implements All-Distances Sketches (ADS) and the
// Historic Inverse Probability (HIP) estimators of
//
//	Edith Cohen. "All-Distances Sketches, Revisited: HIP Estimators for
//	Massive Graphs Analysis." PODS 2014 (arXiv:1306.3284).
//
// An All-Distances Sketch of a node v is a small weighted sample of the
// nodes reachable from v, biased toward closer nodes: node j enters
// ADS(v) with probability ~ k/π_vj, where π_vj is j's rank in v's
// nearest-neighbor order.  Sketches for all nodes are computed in
// near-linear time, and a large class of distance-based statistics —
// neighborhood cardinalities n_d(v), closeness and distance-decay
// centralities C_{α,β}(v), arbitrary Q_g(v) = Σ_j g(j, d_vj) — are
// estimated from a node's sketch alone, with coefficient of variation at
// most 1/sqrt(2(k-1)) for the HIP estimators.
//
// The package is a facade over the internal implementation:
//
//   - graphs: compact CSR graphs, deterministic generators, edge-list I/O;
//   - sketches: bottom-k ADS, built by PrunedDijkstra (Algorithm 1) over
//     full-precision or base-b ranks, with uniform or weighted (Section 9)
//     nodes; the (1+ε)-approximate sketches of Section 3 are built by the
//     distributed rounds of LocalUpdates (Algorithm 2, `adstool build -eps
//     -dist`) or in process by adsketch/lab's BuildApprox, and served here;
//   - estimators: basic (Section 4) and HIP (Section 5) cardinality
//     estimators and query-time α/β centrality kernels;
//   - the paper's other flavors and toolkits — the k-mins and k-partition
//     ADS, the size-only estimator (Section 8), ADS over data streams
//     (Section 3.1), HyperLogLog and the HIP distinct counter (Section 6),
//     and Morris counters (Section 7) — live in package adsketch/lab,
//     which no serving binary links;
//   - analysis: closeness/harmonic/decay centralities from Engine, and in
//     adsketch/lab their per-call references with exact baselines, and
//     distance distributions via ANF/HyperANF (Appendix B.1).
//
// # Quick start
//
// Build composes the whole design space through functional options, and
// Engine serves batch queries from cached per-node indices:
//
//	g := adsketch.PreferentialAttachment(10000, 5, 1)
//	set, err := adsketch.Build(g, adsketch.WithK(16), adsketch.WithSeed(42))
//	if err != nil { ... }
//	eng, err := adsketch.NewEngine(set)
//	if err != nil { ... }
//	sizes, _ := eng.NeighborhoodSizes(ctx, 3, 0, 123) // ~|N_3(0)|, ~|N_3(123)|
//	cl, _ := eng.Closeness(ctx, 0)                    // ~1/Σ_j d(0,j)
//	top, _ := eng.TopCloseness(ctx, 10)
//
// All randomness is deterministic in the seed, and sketches built with
// the same seed are coordinated (Section 2), which enables cross-sketch
// operations such as Jaccard similarity of neighborhoods.
//
// # Serving queries over a wire
//
// The Engine also dispatches a typed, JSON-serializable query protocol —
// Request / Response via Engine.Do and Engine.DoBatch — and every sketch
// set kind serializes through Set.WriteTo / ReadSketchSet, so a
// production process can build once, persist, and serve the protocol
// over any transport.  Sets are stored as columnar frames (one offsets
// array plus shared entry columns per set), and there is one file
// format: every writer persists that layout verbatim (version 3, no rank
// column — ranks re-derive from the recorded seed).  ReadSketchSet
// validates every sketch of what it reads; OpenSketchFile /
// MmapSketchFile trust the file and serve it back with O(1) allocations
// or zero copies.  They read that layout only: a file of an earlier
// release — version 2, or an older version-3 layout — is refused, naming
// cmd/adsconvert, the standalone tool that rewrites it in the current
// layout (with `-seed` for a weighted or approximate one that stores its
// ranks, which records no seed).  cmd/adsserver is the reference HTTP
// server (POST /v1/query, worker mode with -mmap);
// see README.md for the wire shapes.
//
// A set too large for one process splits by node range
// (SplitSketchSet) into partitions that are sets in their own right —
// one *Set type, which knows its node range and its place in the split —
// so a partition writes, reads, and serves (NewEngine) through the same
// calls as a whole set, and a Coordinator scatters queries over them.
//
// # Serving fleets of datasets
//
// A deployment serves many sketch datasets — one per graph snapshot,
// per day, per k, per kind — and replaces them under live traffic.
// Catalog is that layer: a registry of named, versioned datasets (each
// an Engine or Coordinator), routed per query by Request.Dataset, with
// zero-downtime hot swaps (Catalog.Swap: in-flight queries drain on the
// old version, whose resources — including an mmap'd SketchFile — are
// released only after its last reader) and optional LRU eviction of
// idle file-backed datasets under a memory budget.  cmd/adsserver
// exposes the catalog over HTTP (-dataset name=path, GET/POST/DELETE
// /v1/datasets).
//
// # Removed legacy constructors
//
// The pre-options constructors (BuildWithOptions, BuildWeighted,
// BuildPriorityWeighted, BuildApprox) were deprecated for one release
// and are now removed; each is reproduced bit-for-bit by Build with the
// equivalent options.  See README.md for the migration table.
package adsketch

import (
	"fmt"
	"io"

	"adsketch/internal/cluster"
	"adsketch/internal/core"
	"adsketch/internal/graph"
)

// Graph is a compact immutable graph in CSR form.
type Graph = graph.Graph

// GraphBuilder accumulates edges and produces a Graph.
type GraphBuilder = graph.Builder

// NewGraphBuilder returns a builder for a graph with n nodes.
func NewGraphBuilder(n int, directed bool) *GraphBuilder {
	return graph.NewBuilder(n, directed)
}

// ReadEdgeList parses a "u v [w]" edge list (see graph.ReadEdgeList).
func ReadEdgeList(r io.Reader, directed bool) (*Graph, error) {
	return graph.ReadEdgeList(r, directed)
}

// WriteEdgeList writes a graph as an edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// Deterministic graph generators (see package graph for details).
var (
	Path                   = graph.Path
	Cycle                  = graph.Cycle
	Grid                   = graph.Grid
	Complete               = graph.Complete
	Star                   = graph.Star
	RandomTree             = graph.RandomTree
	GNP                    = graph.GNP
	PreferentialAttachment = graph.PreferentialAttachment
	WattsStrogatz          = graph.WattsStrogatz
	WithRandomWeights      = graph.WithRandomWeights
)

// Set holds the bottom-k sketches of one graph's nodes, of any kind —
// uniform ranks at full precision or base b, the Section 9 weighted ranks,
// or the (1+ε)-approximate sketches of Section 3 that the distributed
// build makes — which Params reports.  It is
// the one set type: a whole set, or one node-range partition of a split
// (SplitSketchSet), which Lo, Hi, TotalNodes and Part describe.  The uniform
// sets additionally support the coordinated cross-sketch operations.
type Set = core.Set

// NodeSketch is the per-node query interface shared by all kinds.
type NodeSketch = core.Sketch

// Ranked is one node with its centrality score, as returned by the
// top-N queries of Engine.
type Ranked = cluster.Ranked

// SketchFormatVersion is the sketch file format version: the columnar
// (frame-layout) format every writer emits — Set.WriteTo and
// WriteSketchSetV3, for whole sets and partitions alike — and
// OpenSketchFile / MmapSketchFile serve zero-copy.
const SketchFormatVersion = core.EncodeVersion

// SketchFile is an opened sketch file: the set it holds — a whole one or a
// partition — plus the backing mmap region when the file was mapped.
type SketchFile = core.SketchFile

// OpenSketchFile opens a sketch file, trusting it: the current
// (version-3, columnar) layout is read in one call and its columns viewed
// in place — O(1) allocations per set, no per-sketch validation (use
// ReadSketchSet for a file of unknown origin).  Any other file is refused
// with the reason; for a file of an earlier release, that adsconvert
// rewrites it.
func OpenSketchFile(path string) (*SketchFile, error) { return core.OpenSketchFile(path) }

// MmapSketchFile opens a sketch file by mapping it into memory (on linux;
// elsewhere it degrades to OpenSketchFile, which also refuses any file
// but one of the current layout): no column is read
// until queried, so a serving process starts in near-constant time
// regardless of file size.  Close the returned file only after all
// sketches and indexes derived from it are out of use.
func MmapSketchFile(path string) (*SketchFile, error) { return core.MmapSketchFile(path) }

// WriteSketchSetV3 serializes a sketch set — a whole one, or a partition
// behind the partition envelope — in the columnar version-3 format: a
// fixed header followed by the raw frame columns, so encoding is
// near-memcpy and decoding O(columns).  Estimates from the reloaded set
// are bit-for-bit those of the original.  set.WriteTo(w) writes the same
// bytes.
func WriteSketchSetV3(w io.Writer, set *Set) (int64, error) { return set.WriteTo(w) }

// WritePartitionV3 is WriteSketchSetV3, under the name it had while a
// partition was a type of its own.
var WritePartitionV3 = WriteSketchSetV3

// SplitSketchSet partitions a whole sketch set by node ID into parts
// contiguous shards of near-equal size: each a *Set holding the sketches
// of global nodes [Lo, Hi) of a TotalNodes-node set, placed in the split
// by Part.  The partitions alias the set's sketches, so splitting costs
// no sketch memory; every HIP estimate computed from a partition equals
// the whole-set one, because entries keep their global node IDs.  They
// serialize independently (WriteTo, ReadSketchSet), serve independently
// (NewEngine), and a complete split merges back bit-for-bit
// (MergeSketchSets).
func SplitSketchSet(set *Set, parts int) ([]*Set, error) {
	if set == nil {
		return nil, fmt.Errorf("%w: nil sketch set", ErrBadOption)
	}
	return core.SplitSketchSet(set, parts)
}

// MergeSketchSets reassembles a complete split (in any order) back into
// one whole set whose serialization is bit-for-bit identical to the
// original's.
func MergeSketchSets(parts []*Set) (*Set, error) { return core.MergeSketchSets(parts) }

// ReadSketchSet deserializes a sketch file of any kind written by
// Set.WriteTo (build once, query many) — a whole set or a partition,
// whichever the file holds (Set.IsPartition) — validating every sketch's
// structural invariants.  A file of an earlier release is refused, naming
// adsconvert, which rewrites it.
func ReadSketchSet(r io.Reader) (*Set, error) { return core.ReadSketchSet(r) }

// NeighborhoodJaccard estimates the Jaccard similarity of N_da(a) and
// N_db(b) from two coordinated bottom-k sketches (same build seed).
func NeighborhoodJaccard(a *core.ADS, da float64, b *core.ADS, db float64) float64 {
	return core.NeighborhoodJaccard(a, da, b, db)
}

// UnionNeighborhood estimates |∪_s N_d(s)| over seed nodes — the timed-
// influence primitive — from coordinated bottom-k sketches.
func UnionNeighborhood(set *Set, seeds []int32, d float64) float64 {
	return core.UnionNeighborhoodEstimate(set, seeds, d)
}

// GreedyInfluenceSeeds greedily selects numSeeds nodes maximizing the
// estimated union coverage |∪ N_d(s)|, evaluated purely on sketches.
func GreedyInfluenceSeeds(set *Set, candidates []int32, numSeeds int, d float64) ([]int32, float64) {
	return core.GreedyInfluenceSeeds(set, candidates, numSeeds, d)
}

// DistanceUpperBound returns a 2-hop-cover-style upper bound on the
// distance between two sketch owners: the minimum of d(a,x)+d(x,b) over
// nodes x sampled in both coordinated sketches (+Inf if none is shared).
func DistanceUpperBound(a, b *core.ADS) float64 {
	return core.DistanceUpperBound(a, b)
}

// EstimateNeighborhoodHIP returns the HIP estimate of n_d(v) from a node
// sketch.
func EstimateNeighborhoodHIP(s NodeSketch, d float64) float64 {
	return core.EstimateNeighborhoodHIP(s, d)
}

// HIPIndex is a prebuilt per-sketch query index (distance -> cumulative
// adjusted weight) answering repeated neighborhood queries in O(log size).
type HIPIndex = core.HIPIndex

// NewHIPIndex builds the query index for a node sketch.
func NewHIPIndex(s NodeSketch) *HIPIndex { return core.NewHIPIndex(s) }

// EstimateQ returns the HIP estimate of Q_g(v) = Σ_j g(j, d_vj)
// (equation (5) of the paper).
func EstimateQ(s NodeSketch, g func(node int32, dist float64) float64) float64 {
	return core.EstimateQ(s, g)
}

// EstimateCentrality returns the HIP estimate of C_{α,β}(v)
// (equation (3) of the paper); α must be non-increasing, β >= 0.
func EstimateCentrality(s NodeSketch, alpha func(float64) float64, beta func(int32) float64) float64 {
	return core.EstimateCentrality(s, alpha, beta)
}

// Query-time centrality kernels.
var (
	KernelThreshold    = core.KernelThreshold
	KernelReachability = core.KernelReachability
	KernelExponential  = core.KernelExponential
	KernelHarmonic     = core.KernelHarmonic
	KernelIdentity     = core.KernelIdentity
	UnitBeta           = core.UnitBeta
)
