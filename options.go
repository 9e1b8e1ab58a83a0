package adsketch

import (
	"errors"
	"fmt"
	"math"

	"adsketch/internal/core"
)

// Typed sentinel errors returned by Build and NewEngine.  Wrapped errors
// carry the offending value; match with errors.Is.
var (
	// ErrBadOption reports a single option whose value is out of range
	// (e.g. WithK(0), WithBaseB(1), a non-positive node weight).
	ErrBadOption = errors.New("adsketch: bad option value")
	// ErrIncompatibleOptions reports a combination of individually valid
	// options that no sketch construction supports (e.g. node weights with
	// base-b ranks).
	ErrIncompatibleOptions = errors.New("adsketch: incompatible options")
)

// DefaultK is the sketch parameter used when WithK is not given.
const DefaultK = 16

// SketchSet is the name the result of Build had while it was an
// interface; *Set was its one implementation, and is now the one set type.
type SketchSet = *Set

// buildConfig is the resolved option state of one Build call.
type buildConfig struct {
	k        int
	seed     uint64
	baseB    float64
	weights  []float64
	priority bool
}

// Option configures a Build call.  Options are applied in order; each
// validates its own value, and Build validates the combination.
type Option func(*buildConfig) error

// WithK sets the sketch parameter k (1 to 2²⁰, the most a sketch file
// records), which trades space for accuracy: HIP estimates have CV <=
// 1/sqrt(2(k-1)).  Default DefaultK.
func WithK(k int) Option {
	return func(c *buildConfig) error {
		if k < 1 || k > core.MaxK {
			return fmt.Errorf("%w: WithK(%d), k must be in [1, %d]", ErrBadOption, k, core.MaxK)
		}
		c.k = k
		return nil
	}
}

// WithSeed sets the seed of the shared random permutation(s).  Sketch
// sets built with the same seed are coordinated (Section 2), enabling
// cross-sketch operations such as Jaccard similarity and union
// cardinalities.  Default 0.
func WithSeed(seed uint64) Option {
	return func(c *buildConfig) error {
		c.seed = seed
		return nil
	}
}

// WithBaseB rounds ranks down to powers b^-h (Sections 2 and 5.6),
// trading estimator variance (factor (1+b)/2) for compact rank
// representation; b must be > 1.  Default: full-precision ranks.
func WithBaseB(b float64) Option {
	return func(c *buildConfig) error {
		if !(b > 1) || math.IsInf(b, 1) {
			return fmt.Errorf("%w: WithBaseB(%g), base must be a finite value > 1", ErrBadOption, b)
		}
		c.baseB = b
		return nil
	}
}

// WithNodeWeights builds the Section 9 weighted sketches: ranks are
// biased by the positive per-node weights beta (len(beta) must equal the
// graph's node count), and estimates become weighted cardinalities
// Σ_{j: d_vj <= d} β(j).  Uses exponential ranks unless WithPriorityRanks
// is also given.  Incompatible with WithBaseB.
func WithNodeWeights(beta []float64) Option {
	return func(c *buildConfig) error {
		if len(beta) == 0 {
			return fmt.Errorf("%w: WithNodeWeights with no weights", ErrBadOption)
		}
		c.weights = beta
		return nil
	}
}

// WithPriorityRanks switches weighted sketches from exponential ranks to
// Sequential Poisson (priority) ranks r(i) = r'(i)/β(i), the Section 9
// alternative weighted-sampling scheme.  Requires WithNodeWeights.
func WithPriorityRanks() Option {
	return func(c *buildConfig) error {
		c.priority = true
		return nil
	}
}

// check validates the option combination against the target graph.
func (c *buildConfig) check(g *Graph) error {
	if c.weights != nil {
		if c.baseB != 0 {
			return fmt.Errorf("%w: WithNodeWeights and WithBaseB: weighted ranks cannot be base-b rounded", ErrIncompatibleOptions)
		}
		if len(c.weights) != g.NumNodes() {
			return fmt.Errorf("%w: WithNodeWeights has %d weights for %d nodes", ErrBadOption, len(c.weights), g.NumNodes())
		}
		if err := core.CheckWeights(c.weights, 0); err != nil {
			return fmt.Errorf("%w: WithNodeWeights: %v", ErrBadOption, err)
		}
	}
	if c.priority && c.weights == nil {
		return fmt.Errorf("%w: WithPriorityRanks requires WithNodeWeights", ErrIncompatibleOptions)
	}
	return nil
}

// Build computes the (forward) bottom-k All-Distances Sketch of every node
// of g.  It is the single entry point over the paper's design space:
// base-b ranks and Section 9 node weights compose as options (the k-mins
// and k-partition flavors, and the in-process (1+ε)-approximate rounds of
// Section 3, are reproduced in adsketch/lab; the serving binaries build
// approximate sets with the distributed build, `adstool build -eps -dist`):
//
//	set, err := adsketch.Build(g)                                // bottom-k, k=16, PrunedDijkstra
//	set, err := adsketch.Build(g, adsketch.WithK(64), adsketch.WithSeed(42))
//	set, err := adsketch.Build(g, adsketch.WithBaseB(2))          // base-2 ranks
//	set, err := adsketch.Build(g, adsketch.WithNodeWeights(beta)) // weighted cardinalities
//
// Exact sketches are built by Algorithm 1 (PrunedDijkstra) on GOMAXPROCS
// goroutines, for its candidate batches, and the output does not depend
// on how many.  On 2 cores it builds PA(10000,5) at k=16 in about two thirds
// of the one-core time (BenchmarkBuildPipeline).
//
// For backward sketches on directed graphs, pass g.Transpose().  Invalid
// option values return an error matching ErrBadOption; unsupported
// combinations return one matching ErrIncompatibleOptions.  All
// randomness is deterministic in the seed, and the result is bit-for-bit
// identical to the corresponding legacy constructor under equal options.
func Build(g *Graph, opts ...Option) (*Set, error) {
	cfg := buildConfig{k: DefaultK}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("%w: nil Option", ErrBadOption)
		}
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if err := cfg.check(g); err != nil {
		return nil, err
	}
	if cfg.weights != nil {
		scheme := core.ExponentialWeights
		if cfg.priority {
			scheme = core.PriorityWeights
		}
		return core.BuildWeightedSetParallel(g, cfg.k, cfg.seed, cfg.weights, scheme, 0)
	}
	return core.BuildSet(g, core.Options{K: cfg.k, Seed: cfg.seed, BaseB: cfg.baseB})
}
