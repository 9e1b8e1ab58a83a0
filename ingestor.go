package adsketch

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"adsketch/internal/core"
	"adsketch/internal/graph"
	"adsketch/internal/ingest"
	"adsketch/internal/stream"
)

// The streaming-ingest tier.  An Ingestor consumes edge insertions —
// singly (Insert), batched (InsertBatch), or replayed from an EdgeSource —
// and maintains every node's sketch incrementally via the monotone
// candidate propagation of package ingest: insertions only shrink
// distances, so each edge's effect is a bounded frontier of (node, dist,
// rank) candidates pruned by the bottom-k win rules, and the maintained
// state is at all times exactly what a full Build of the current graph
// would produce.  Every N edges (WithFreezeEvery) or on demand (Freeze)
// the base frame and pending deltas freeze into a new columnar frame and,
// when publishing is configured, land in a Catalog via Swap: queries
// always see the last published version, never partial deltas, and
// in-flight queries drain on the version they started on.

// Edge is one edge-insertion event; W == 0 means unit length, and any
// other W must be a positive, finite length.
type Edge = stream.Edge

// EdgeSource yields the edges of a stream in order.
type EdgeSource = stream.EdgeSource

// NewRandomEdgeSource returns a deterministic random edge stream over node
// IDs [0, nodes) — the same arguments always yield the same edges.
func NewRandomEdgeSource(nodes, count int, weighted bool, seed uint64) (EdgeSource, error) {
	return stream.NewRandomSource(nodes, count, weighted, seed)
}

// Ingestor maintains a sketch set incrementally over an edge stream and
// optionally publishes frozen versions through a Catalog.  All methods are
// safe for concurrent use; queries served from the catalog never touch
// unfrozen state.
type Ingestor struct {
	mu sync.Mutex
	m  *ingest.Maintainer // guarded by mu; the maintainer itself is not concurrency-safe

	freezeEvery int

	cat     *Catalog
	dataset string
	dir     string
	mmapPub bool

	pending   int64     // guarded by mu
	freezes   int64     // guarded by mu
	seq       int64     // guarded by mu
	version   int       // guarded by mu
	path      string    // guarded by mu
	published time.Time // guarded by mu
}

// ingestorConfig collects the options before the maintainer exists.
type ingestorConfig struct {
	freezeEvery int
	cat         *Catalog
	dataset     string
	dir         string
	mmap        bool
}

// IngestorOption configures NewIngestor.
type IngestorOption func(*ingestorConfig) error

// WithFreezeEvery freezes (and publishes, when configured) automatically
// after every n ingested edges.  0 (the default) disables edge-count
// freezing; Freeze can always be called explicitly.
func WithFreezeEvery(n int) IngestorOption {
	return func(c *ingestorConfig) error {
		if n < 0 {
			return fmt.Errorf("%w: WithFreezeEvery(%d), n must be >= 0 (0 = disabled)", ErrBadOption, n)
		}
		c.freezeEvery = n
		return nil
	}
}

// WithPublish routes every freeze into cat under the given dataset name
// via Catalog.Swap — the zero-downtime publish path.  By default versions
// are published as in-memory sets; combine with WithPublishDir to persist
// each frozen version as a v3 file and serve from it.
func WithPublish(cat *Catalog, dataset string) IngestorOption {
	return func(c *ingestorConfig) error {
		if cat == nil {
			return fmt.Errorf("%w: WithPublish(nil catalog)", ErrBadOption)
		}
		if err := checkDatasetName(dataset); err != nil {
			return err
		}
		c.cat, c.dataset = cat, dataset
		return nil
	}
}

// WithPublishDir writes each frozen version as a columnar v3 file under
// dir (created if missing) and publishes it as a file-backed dataset.
func WithPublishDir(dir string) IngestorOption {
	return func(c *ingestorConfig) error {
		if dir == "" {
			return fmt.Errorf("%w: WithPublishDir(\"\")", ErrBadOption)
		}
		c.dir = dir
		return nil
	}
}

// WithPublishMmap publishes the v3 files of WithPublishDir via mmap —
// near-zero swap latency and resident cost.
func WithPublishMmap() IngestorOption {
	return func(c *ingestorConfig) error {
		c.mmap = true
		return nil
	}
}

// NewIngestor returns an ingestor maintaining the given built set as its
// graph g evolves.  The set must be a uniform bottom-k set with
// full-precision ranks built from g; g and set are not mutated.
func NewIngestor(g *Graph, set *Set, opts ...IngestorOption) (*Ingestor, error) {
	if set == nil {
		return nil, fmt.Errorf("%w: nil sketch set", ErrBadOption)
	}
	if p := set.Params(); p.Kind != core.KindUniform || p.BaseB != 0 {
		return nil, fmt.Errorf("%w: streaming ingest supports uniform bottom-k sets at full precision, got %+v", ErrIncompatibleOptions, p)
	}
	var c ingestorConfig
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("%w: nil IngestorOption", ErrBadOption)
		}
		if err := opt(&c); err != nil {
			return nil, err
		}
	}
	if (c.dir != "" || c.mmap) && c.cat == nil {
		return nil, fmt.Errorf("%w: WithPublishDir/WithPublishMmap require WithPublish", ErrIncompatibleOptions)
	}
	if c.mmap && c.dir == "" {
		return nil, fmt.Errorf("%w: WithPublishMmap requires WithPublishDir", ErrIncompatibleOptions)
	}
	m, err := ingest.New(g, set)
	if err != nil {
		return nil, err
	}
	if c.dir != "" {
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			return nil, fmt.Errorf("adsketch: creating publish dir: %w", err)
		}
	}
	return &Ingestor{
		m:           m,
		freezeEvery: c.freezeEvery,
		cat:         c.cat,
		dataset:     c.dataset,
		dir:         c.dir,
		mmapPub:     c.mmap,
	}, nil
}

// NewEmptyIngestor returns an ingestor starting from the empty graph:
// every node and edge arrives through the stream.  k and seed fix the
// sketch parameter and the coordinated ranks of every version it freezes.
func NewEmptyIngestor(directed bool, k int, seed uint64, opts ...IngestorOption) (*Ingestor, error) {
	g := graph.NewBuilder(0, directed).Build()
	set, err := core.BuildSet(g, core.Options{K: k, Seed: seed})
	if err != nil {
		return nil, err
	}
	return NewIngestor(g, set, opts...)
}

// Dataset returns the publish target name ("" when not publishing).
func (in *Ingestor) Dataset() string { return in.dataset }

// Insert ingests an edge of length 1 (both directions for undirected
// ingestors), propagating all sketch updates and freezing/publishing when
// a configured trigger fires.
func (in *Ingestor) Insert(u, v int32) error { return in.InsertWeighted(u, v, 0) }

// InsertWeighted ingests an edge of length w: 0 means unit length, and
// any other w must be positive and finite, or the edge is refused and
// changes nothing.
func (in *Ingestor) InsertWeighted(u, v int32, w float64) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.insertLocked(u, v, w)
}

// InsertBatch ingests a batch of edges, returning how many were applied.
// Automatic freezes may fire mid-batch, so a huge replay batch cannot
// postpone publishing indefinitely.
func (in *Ingestor) InsertBatch(edges []Edge) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, e := range edges {
		if err := in.insertLocked(e.U, e.V, e.W); err != nil {
			return i, err
		}
	}
	return len(edges), nil
}

// Replay drains an EdgeSource into the ingestor, returning how many edges
// were applied.
func (in *Ingestor) Replay(src EdgeSource) (int, error) {
	return stream.Replay(src, func(e Edge) error {
		return in.InsertWeighted(e.U, e.V, e.W)
	})
}

// insertLocked applies one edge.  Only w == 0 stands for a unit edge; the
// maintainer refuses any other length graph.ValidLength rejects.
func (in *Ingestor) insertLocked(u, v int32, w float64) error {
	if w == 0 {
		w = 1
	}
	if err := in.m.InsertWeighted(u, v, w); err != nil {
		return err
	}
	in.pending++
	if in.freezeEvery > 0 && in.pending >= int64(in.freezeEvery) {
		_, err := in.freezeLocked()
		return err
	}
	return nil
}

// FreezeResult describes one frozen (and possibly published) version.
type FreezeResult struct {
	// Set is the frozen sketch set — bit-for-bit what a full Build of the
	// current graph would produce.
	Set *Set
	// Version is the catalog version published (0 when not publishing).
	Version int
	// Path is the v3 file written (empty for in-memory publishes).
	Path string
	// Nodes and Entries size the frozen set.
	Nodes, Entries int
}

// Freeze freezes base + pending deltas into a new columnar frame now,
// publishes it when configured, and re-bases the ingestor on it.
func (in *Ingestor) Freeze() (*FreezeResult, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.freezeLocked()
}

func (in *Ingestor) freezeLocked() (*FreezeResult, error) {
	set, err := in.m.Freeze()
	if err != nil {
		return nil, err
	}
	res := &FreezeResult{Set: set, Nodes: set.NumNodes(), Entries: set.TotalEntries()}
	in.pending = 0
	in.freezes++
	if in.cat == nil {
		return res, nil
	}
	src := SetSource(set)
	if in.dir != "" {
		in.seq++
		path := filepath.Join(in.dir, fmt.Sprintf("%s-%08d.v3", in.dataset, in.seq))
		f, err := os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("adsketch: writing frozen version: %w", err)
		}
		if _, err := set.WriteTo(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("adsketch: writing frozen version: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("adsketch: writing frozen version: %w", err)
		}
		if in.mmapPub {
			src = MmapSource(path)
		} else {
			src = FileSource(path)
		}
		res.Path = path
	}
	version, err := in.cat.Swap(in.dataset, src)
	if err != nil {
		return nil, fmt.Errorf("adsketch: publishing %q: %w", in.dataset, err)
	}
	res.Version = version
	in.version = version
	in.path = res.Path
	in.published = time.Now()
	return res, nil
}

// IngestorStats is a point-in-time snapshot of an ingestor — the per-
// dataset payload of the adsserver /statsz ingest section.
type IngestorStats struct {
	// Dataset is the publish target ("" when not publishing).
	Dataset string `json:"dataset,omitempty"`
	// Maintainer carries the propagation counters (nodes, edges, offers,
	// accepts, evictions, frontier high-water, pending overlay sizes).
	Maintainer ingest.Stats `json:"maintainer"`
	// PendingEdges counts edges ingested since the last freeze — the
	// ingest lag in edges.
	PendingEdges int64 `json:"pending_edges"`
	// Freezes counts Freeze calls (automatic and explicit).
	Freezes int64 `json:"freezes"`
	// LastVersion is the last published catalog version (0 = none yet).
	LastVersion int `json:"last_version,omitempty"`
	// LastPath is the last published v3 file (empty for in-memory).
	LastPath string `json:"last_path,omitempty"`
	// PublishLagSeconds is the time since the last publish — the ingest
	// lag in seconds (-1 before the first publish).
	PublishLagSeconds float64 `json:"publish_lag_seconds"`
}

// Stats snapshots the ingestor.
func (in *Ingestor) Stats() IngestorStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := IngestorStats{
		Dataset:           in.dataset,
		Maintainer:        in.m.Stats(),
		PendingEdges:      in.pending,
		Freezes:           in.freezes,
		LastVersion:       in.version,
		LastPath:          in.path,
		PublishLagSeconds: -1,
	}
	if !in.published.IsZero() {
		st.PublishLagSeconds = time.Since(in.published).Seconds()
	}
	return st
}
