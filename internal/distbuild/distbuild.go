// Package distbuild constructs All-Distances Sketch sets partition by
// partition across P workers, none of which ever materializes the full
// graph or the full sketch set.  Worker i owns the contiguous node
// range [i·n/P, (i+1)·n/P) — the same ranges core.SplitSketchSet cuts
// and cluster.Router serves — and streams only the edges incident to
// its range from the shared edge list (graph.ScanEdgesFiltered).
//
// Construction is bulk-synchronous (Pregel-style): each round a worker
// relaxes the frontier candidates addressed to its partition against
// its growable sketch columns with core.OfferKernel — Algorithm 2's
// insert-and-clean-up rule and its (1+ε) variant, the one copy the
// incremental maintainer (package ingest) also calls — buffers the
// candidates its acceptances generate by destination partition, and
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
// Each worker applies its inbox in one canonical order, (dist, target,
// node), for every kind, and the candidates to one target reach one
// worker, so a round's outcome depends neither on the worker count nor on
// the transport's delivery order: the partition files of every P are the
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
	"math"

	"adsketch/internal/core"
	"adsketch/internal/wire"
)

// Kind selects the sketch kind a distributed build produces.  The
// values match the wire frontier-frame kind codes.
type Kind int

const (
	// KindUniform builds bottom-k sketches with uniform full-precision
	// ranks — the distributed analogue of core.BuildSet.
	KindUniform Kind = wire.FrontierKindUniform
	// KindWeighted builds weighted bottom-k sketches (exponential or
	// priority ranks) — the analogue of core.BuildWeightedSet.
	KindWeighted Kind = wire.FrontierKindWeighted
	// KindApprox builds (1+ε)-approximate sketches (Section 3), which
	// no in-process serving build makes.
	KindApprox Kind = wire.FrontierKindApprox
)

func (k Kind) String() string {
	switch k {
	case KindUniform:
		return "uniform"
	case KindWeighted:
		return "weighted"
	case KindApprox:
		return "approx"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

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

// Validate checks the spec's invariants.
func (s *Spec) Validate() error {
	if s.Path == "" {
		return fmt.Errorf("distbuild: spec has no edge-list path")
	}
	if s.N < 1 {
		return fmt.Errorf("distbuild: node count %d, want >= 1", s.N)
	}
	if s.K < 1 {
		return fmt.Errorf("distbuild: k = %d, want >= 1", s.K)
	}
	if s.Parts < 1 || s.Parts > s.N {
		return fmt.Errorf("distbuild: cannot split %d nodes across %d workers", s.N, s.Parts)
	}
	switch s.Kind {
	case KindUniform:
	case KindWeighted:
		if s.Scheme != core.ExponentialWeights && s.Scheme != core.PriorityWeights {
			return fmt.Errorf("distbuild: unknown weight scheme %d", s.Scheme)
		}
		if len(s.Beta) != s.N {
			return fmt.Errorf("distbuild: beta has %d weights for %d nodes", len(s.Beta), s.N)
		}
		if err := core.CheckWeights(s.Beta, 0); err != nil {
			return fmt.Errorf("distbuild: %w", err)
		}
	case KindApprox:
		if s.Eps < 0 || math.IsNaN(s.Eps) || math.IsInf(s.Eps, 1) {
			return fmt.Errorf("distbuild: invalid epsilon %g", s.Eps)
		}
	default:
		return fmt.Errorf("distbuild: unknown kind %d", int(s.Kind))
	}
	return nil
}

// Worker returns worker index's slice of the spec — the JSON-friendly
// form a remote build worker is configured with.
func (s *Spec) Worker(index int) (WorkerSpec, error) {
	if err := s.Validate(); err != nil {
		return WorkerSpec{}, err
	}
	if index < 0 || index >= s.Parts {
		return WorkerSpec{}, fmt.Errorf("distbuild: worker index %d out of range [0, %d)", index, s.Parts)
	}
	w := WorkerSpec{
		Path:     s.Path,
		Directed: s.Directed,
		N:        s.N,
		K:        s.K,
		Seed:     s.Seed,
		Kind:     int(s.Kind),
		Scheme:   int(s.Scheme),
		Eps:      s.Eps,
		Parts:    s.Parts,
		Index:    index,
	}
	if s.Kind == KindWeighted {
		lo, hi := index*s.N/s.Parts, (index+1)*s.N/s.Parts
		w.Beta = s.Beta[lo:hi]
	}
	return w, nil
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
	s := Spec{
		Path: ws.Path, Directed: ws.Directed, N: ws.N, K: ws.K, Seed: ws.Seed,
		Kind: Kind(ws.Kind), Scheme: core.WeightScheme(ws.Scheme), Eps: ws.Eps, Parts: ws.Parts,
	}
	if ws.Index < 0 || ws.Index >= ws.Parts {
		return fmt.Errorf("distbuild: worker index %d out of range [0, %d)", ws.Index, ws.Parts)
	}
	if Kind(ws.Kind) == KindWeighted {
		lo, hi := ws.Index*ws.N/ws.Parts, (ws.Index+1)*ws.N/ws.Parts
		if len(ws.Beta) != hi-lo {
			return fmt.Errorf("distbuild: worker %d owns %d nodes but got %d weights", ws.Index, hi-lo, len(ws.Beta))
		}
		if err := core.CheckWeights(ws.Beta, lo); err != nil {
			return fmt.Errorf("distbuild: %w", err)
		}
		// Spec.Validate checks Beta against the full node count; the
		// worker only carries its slice, so stand in a valid vector.
		s.Beta = make([]float64, ws.N)
		for i := range s.Beta {
			s.Beta[i] = 1
		}
	}
	return s.Validate()
}

// Stats is a point-in-time snapshot of one worker.  The sizes scale
// with the worker's partition, not the whole graph — the memory test
// pins that.
type Stats struct {
	// OwnedNodes and Arcs size the worker's slice of the graph: the
	// nodes of its range and the in-arcs it loaded for them.
	OwnedNodes int `json:"owned_nodes"`
	Arcs       int `json:"arcs"`
	// Entries counts the entries currently held across owned sketches.
	Entries int `json:"entries"`
	// Offers counts candidates evaluated; Accepts the subset that
	// changed a sketch; Evictions the entries dropped by acceptances.
	Offers    int64 `json:"offers"`
	Accepts   int64 `json:"accepts"`
	Evictions int64 `json:"evictions"`
	// MaxInbox is the largest single-round delivery the worker saw.
	MaxInbox int `json:"max_inbox"`
}

// Result summarizes a completed distributed build.
type Result struct {
	// Rounds is the number of exchange rounds until convergence
	// (rounds that delivered at least one candidate).
	Rounds int
	// Candidates counts every candidate exchanged across all rounds.
	Candidates int64
	// Partitions holds each worker's frozen v3 partition file bytes,
	// in worker order.
	Partitions [][]byte
}
