// Package distbuild constructs All-Distances Sketch sets partition by
// partition across P workers, none of which ever materializes the full
// graph or the full sketch set.  Worker i owns the contiguous node
// range [i·n/P, (i+1)·n/P) — core.PartRange, the rule by which
// core.SplitSketchSet cuts and the coordinator routes — and streams only
// the edges incident to its range from the shared edge list
// (graph.ScanEdgesFiltered).
//
// Construction is bulk-synchronous (Pregel-style): each round a worker
// checks the frontier candidates addressed to its partition, refusing the
// whole round for one it cannot apply, sorts them by (target, dist, node)
// and relaxes each target's slice against its growable sketch columns
// with core.OfferKernel — Algorithm 2's insert-and-clean-up rule as one
// merge of the slice, or its (1+ε) variant a candidate at a time, the one
// copy the incremental maintainer (package ingest) also calls — buffers
// the candidates its acceptances generate by destination partition, and
// exchanges at the round barrier.  The build converges when a round
// generates no candidates.  Workers then freeze their ranges directly
// to v3 partition files.
//
// It is the serving binaries' one construction of the (1+ε)-approximate
// kind (Section 3), whose relaxed rule bounds the insert-then-supersede
// updates LocalUpdates can be forced into: on a graph whose short paths
// arrive after long ones, the kind cuts the candidates exchanged several
// times over (TestApproxCutsCandidatesOnComb).
//
// # Determinism and byte parity
//
// Each worker applies a target's candidates in one canonical order,
// (dist, node), for every kind, a target's candidates change no other
// target's list, and the candidates to one target reach one worker, so a
// round's outcome depends neither on the worker count nor on the
// transport's delivery order: the partition files of every P are the
// same bytes.  For the exact kinds (uniform and weighted bottom-k) the
// candidate fixpoint is schedule-independent besides — acceptance depends
// only on the receiving sketch and the candidate, so any delivery order
// converges to the one true sketch set — and the files are byte-identical
// to splitting a single-process core build of the same graph.  The
// (1+ε)-approximate kind is schedule-dependent (an entry that arrives
// early can be good enough to reject a slightly better later arrival), so
// its files are the canonical order's approximate sets, not those of
// another schedule such as lab.BuildApprox's arrival order.
package distbuild

import (
	"fmt"

	"adsketch/internal/core"
	"adsketch/internal/wire"
)

// Kind selects the sketch kind a distributed build produces: core's set
// kinds, whose codes the wire frontier frames carry.
type Kind = core.Kind

// The kinds a distributed build makes.
const (
	// KindUniform builds bottom-k sketches with uniform full-precision
	// ranks — the distributed analogue of core.BuildSet.
	KindUniform = core.KindUniform
	// KindWeighted builds weighted bottom-k sketches (exponential or
	// priority ranks) — the analogue of core.BuildWeightedSetParallel.
	KindWeighted = core.KindWeighted
	// KindApprox builds (1+ε)-approximate sketches (Section 3), which
	// no in-process serving build makes.
	KindApprox = core.KindApprox
)

// Candidate is one relaxation candidate in flight between partitions.
// It is the wire frame element verbatim, so the in-process and HTTP
// transports exchange exactly the same values.
type Candidate = wire.FrontierCandidate

// Spec describes a whole distributed build, as the driver sees it.
type Spec struct {
	// Path is the edge-list file (graph.ScanEdges format).  Every
	// worker must be able to open it; the driver never does.
	Path string
	// Directed fixes how edge lines are interpreted.
	Directed bool
	// N is the node count: 1 + the largest node ID in the file.
	N int
	// K is the sketch parameter; Seed feeds the rank source.
	K    int
	Seed uint64
	// Kind picks the sketch kind; Scheme applies to KindWeighted and
	// Eps to KindApprox.
	Kind   Kind
	Scheme core.WeightScheme
	Eps    float64
	// Beta holds all N node weights for KindWeighted builds.  Each
	// worker receives only its owned slice.
	Beta []float64
	// Parts is the worker count P.
	Parts int
}

// Validate checks the spec's invariants: its split, and everything else
// as the spec of one worker that owns every node.
func (s *Spec) Validate() error {
	whole := s.worker(0, 1, s.Beta)
	if err := whole.Validate(); err != nil {
		return err
	}
	if _, _, err := core.PartRange(0, s.Parts, s.N); err != nil {
		return fmt.Errorf("distbuild: %w", err)
	}
	return nil
}

// Worker returns worker index's slice of the spec — the JSON-friendly
// form a remote build worker is configured with.
func (s *Spec) Worker(index int) (WorkerSpec, error) {
	if err := s.Validate(); err != nil {
		return WorkerSpec{}, err
	}
	ws := s.worker(index, s.Parts, nil)
	lo, hi, err := ws.owned()
	if err != nil {
		return WorkerSpec{}, err
	}
	if s.Kind == KindWeighted {
		ws.Beta = s.Beta[lo:hi]
	}
	return ws, nil
}

// worker is worker index's spec in a parts-way split, holding beta.
func (s *Spec) worker(index, parts int, beta []float64) WorkerSpec {
	return WorkerSpec{
		Path: s.Path, Directed: s.Directed, N: s.N, K: s.K, Seed: s.Seed,
		Kind: int(s.Kind), Scheme: int(s.Scheme), Eps: s.Eps,
		Parts: parts, Index: index, Beta: beta,
	}
}

// WorkerSpec is one worker's configuration: the whole-build parameters
// plus the worker's own index.  Beta, when present, holds only the
// owned range [i·n/P, (i+1)·n/P) — a worker never sees the global
// weight vector.
type WorkerSpec struct {
	Path     string    `json:"path"`
	Directed bool      `json:"directed"`
	N        int       `json:"n"`
	K        int       `json:"k"`
	Seed     uint64    `json:"seed"`
	Kind     int       `json:"kind"`
	Scheme   int       `json:"scheme"`
	Eps      float64   `json:"eps"`
	Parts    int       `json:"parts"`
	Index    int       `json:"index"`
	Beta     []float64 `json:"beta,omitempty"`
}

// Validate checks the worker spec's invariants.
func (ws *WorkerSpec) Validate() error {
	lo, hi, err := ws.owned()
	if err != nil || Kind(ws.Kind) != KindWeighted {
		return err
	}
	if len(ws.Beta) != int(hi-lo) {
		return fmt.Errorf("distbuild: %d weights for the %d nodes [%d, %d)", len(ws.Beta), hi-lo, lo, hi)
	}
	if err := core.CheckWeights(ws.Beta, int(lo)); err != nil {
		return fmt.Errorf("distbuild: %w", err)
	}
	return nil
}

// owned checks the spec but for Beta and returns the node range the
// worker owns, its core.PartRange range.
func (ws *WorkerSpec) owned() (lo, hi int32, err error) {
	if ws.Path == "" {
		return 0, 0, fmt.Errorf("distbuild: spec has no edge-list path")
	}
	if ws.N < 1 {
		return 0, 0, fmt.Errorf("distbuild: node count %d, want >= 1", ws.N)
	}
	if err := ws.params().Validate(); err != nil {
		return 0, 0, fmt.Errorf("distbuild: %w", err)
	}
	if lo, hi, err = core.PartRange(ws.Index, ws.Parts, ws.N); err != nil {
		return 0, 0, fmt.Errorf("distbuild: worker %d of %d: %w", ws.Index, ws.Parts, err)
	}
	return lo, hi, nil
}

// params returns the parameters of the set the build makes.
func (ws *WorkerSpec) params() core.Params {
	return core.Params{
		Kind:    Kind(ws.Kind),
		Options: core.Options{K: ws.K, Seed: ws.Seed},
		Scheme:  core.WeightScheme(ws.Scheme),
		Eps:     ws.Eps,
	}
}

// Result summarizes a completed distributed build.
type Result struct {
	// Rounds is the number of exchange rounds until convergence
	// (rounds that delivered at least one candidate).
	Rounds int
	// Candidates counts every candidate exchanged across all rounds.
	Candidates int64
	// Examined counts the entries the workers' offer rule read, candidates
	// and sketch entries alike; -1 when some exchanger does not report it
	// (ExaminedCounter).
	Examined int64
	// Partitions holds each worker's frozen v3 partition file bytes,
	// in worker order.
	Partitions [][]byte
}
