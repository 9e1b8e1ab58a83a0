package adsketch

import (
	"context"
	"errors"
	"fmt"

	"adsketch/internal/catalog"
	"adsketch/internal/core"
)

// The dataset-management layer.  An Engine (or Coordinator) serves one
// sketch set for the process lifetime; a production deployment serves
// fleets of them — one per graph snapshot, per day, per k, per kind —
// and rebuilds them while traffic is live.  Catalog is the registry in
// front of those backends: named datasets, each with a version counter,
// resolved per query by Request.Dataset (empty = the default dataset,
// preserving the single-set wire protocol bit-for-bit).
//
// The lifecycle is attach / swap / detach.  Swap atomically publishes a
// new version: queries that began on the old version finish on it
// (handles are reference-counted), new queries see the new one, and the
// old version's resources — including an mmap'd SketchFile's pages —
// are released only when its last in-flight reader is done.  An
// optional memory budget evicts idle file-backed (non-mmap) datasets in
// LRU order; they reload transparently on their next query.

// DefaultDataset is the catalog name that queries with an empty
// Request.Dataset field route to.
const DefaultDataset = "default"

// Typed sentinel errors of the catalog layer; match with errors.Is.
var (
	// ErrUnknownDataset reports a query or lifecycle operation naming a
	// dataset the catalog does not hold.  Servers should map it to HTTP
	// 404.
	ErrUnknownDataset = errors.New("adsketch: unknown dataset")
	// ErrDatasetExists reports an Attach of a name that is already
	// attached (use Swap to replace a dataset).  Servers should map it
	// to HTTP 409.
	ErrDatasetExists = errors.New("adsketch: dataset already attached")
)

// dataset is one materialized catalog version: the serving backend plus
// how it was loaded, for stats.  (A file-backed version's SketchFile is
// owned by its release hook, which Closes it when the version drains.)
type dataset struct {
	be      ShardBackend
	mmapped bool
	path    string // the backing file ("" when not file-backed)
}

// Source describes where a dataset comes from: an in-memory sketch set,
// a sketch file (read in, or mmap'd), or an already-built backend (an
// Engine, a Coordinator over shards — local or remote — or anything else
// implementing ShardBackend).
type Source struct {
	kind       string
	set        *Set
	be         ShardBackend
	path       string
	mmap       bool
	partitions int
}

// SetSource serves an in-memory sketch set (any kind) through an Engine
// built at attach time.
func SetSource(set *Set) Source { return Source{kind: "set", set: set} }

// BackendSource serves an already-built backend: an Engine, a
// Coordinator (so a partitioned or distributed serving tier is one
// catalog entry), or a custom ShardBackend.
func BackendSource(be ShardBackend) Source { return Source{kind: "backend", be: be} }

// FileSource serves a sketch file — a whole set or one partition (the
// latter through a shard Engine).  File-backed datasets are evictable:
// under a catalog memory budget, an idle one may be dropped and
// transparently reloaded from its path on the next query.
func FileSource(path string) Source { return Source{kind: "file", path: path} }

// MmapSource serves a sketch file via mmap: near-zero attach and swap
// latency, near-zero resident cost (pages are file-backed), so mmap
// datasets are exempt from budget eviction.
func MmapSource(path string) Source { return Source{kind: "file", path: path, mmap: true} }

// WithPartitions splits a file or set source into n in-process shard
// engines behind a Coordinator (NewPartitionedEngine) — the catalog
// entry then answers scatter-gather, bit-for-bit like the unsplit set.
// n <= 1 serves unsplit.
func (s Source) WithPartitions(n int) Source {
	s.partitions = n
	return s
}

// Catalog is a concurrency-safe registry of named, versioned sketch
// datasets, each resolving to a serving backend.  It routes the wire
// protocol by Request.Dataset and supports zero-downtime hot swaps: see
// the package comment above for the lifecycle.
type Catalog struct {
	reg *catalog.Registry[dataset]
}

// CatalogOption configures NewCatalog.
type CatalogOption func(*Catalog) error

// WithMemoryBudget bounds the summed resident cost of materialized
// datasets, in bytes.  Over budget, idle file-backed (non-mmap) datasets
// are evicted in LRU order and reload on their next query; in-memory,
// backend, and mmap datasets are never evicted.  0 (the default)
// disables eviction.
func WithMemoryBudget(bytes int64) CatalogOption {
	return func(c *Catalog) error {
		if bytes < 0 {
			return fmt.Errorf("%w: WithMemoryBudget(%d), budget must be >= 0 (0 = unlimited)", ErrBadOption, bytes)
		}
		c.reg = catalog.New[dataset](bytes)
		return nil
	}
}

// NewCatalog returns an empty catalog.
func NewCatalog(opts ...CatalogOption) (*Catalog, error) {
	c := &Catalog{reg: catalog.New[dataset](0)}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("%w: nil CatalogOption", ErrBadOption)
		}
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// checkDatasetName vets a dataset name for the registry and the admin
// URL space: non-empty, and only letters, digits, '.', '_', '-'.
func checkDatasetName(name string) error {
	if name == "" {
		return fmt.Errorf("%w: empty dataset name", ErrBadOption)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("%w: dataset name %q (want letters, digits, '.', '_', '-')", ErrBadOption, name)
		}
	}
	return nil
}

// opener compiles a Source into the registry's open callback and
// reports whether the source is reloadable (evictable under a budget).
func (c *Catalog) opener(src Source) (catalog.Opener[dataset], bool, error) {
	wrap := func(set *Set) (ShardBackend, error) {
		if src.partitions > 1 {
			return NewPartitionedEngine(set, src.partitions)
		}
		return NewEngine(set)
	}
	switch src.kind {
	case "set":
		set := src.set
		if set == nil {
			return nil, false, fmt.Errorf("%w: SetSource(nil)", ErrBadOption)
		}
		return func() (dataset, int64, func(), error) {
			be, err := wrap(set)
			if err != nil {
				return dataset{}, 0, nil, err
			}
			return dataset{be: be}, datasetCost(set), nil, nil
		}, false, nil
	case "backend":
		if src.be == nil {
			return nil, false, fmt.Errorf("%w: BackendSource(nil)", ErrBadOption)
		}
		if src.partitions > 1 {
			return nil, false, fmt.Errorf("%w: WithPartitions applies to set and file sources, not backends", ErrBadOption)
		}
		be := src.be
		return func() (dataset, int64, func(), error) {
			return dataset{be: be}, 0, nil, nil
		}, false, nil
	case "file":
		if src.path == "" {
			return nil, false, fmt.Errorf("%w: FileSource(\"\")", ErrBadOption)
		}
		path, mm := src.path, src.mmap
		open := func() (dataset, int64, func(), error) {
			openFile := OpenSketchFile
			if mm {
				openFile = MmapSketchFile
			}
			sf, err := openFile(path)
			if err != nil {
				return dataset{}, 0, nil, fmt.Errorf("adsketch: loading dataset from %s: %w", path, err)
			}
			d := dataset{mmapped: sf.Mapped(), path: path}
			// A partition file serves as the shard it is; WithPartitions
			// splits whole sets only, which SplitSketchSet enforces.
			if d.be, err = wrap(sf.Set()); err != nil {
				sf.Close()
				return dataset{}, 0, nil, fmt.Errorf("adsketch: serving dataset from %s: %w", path, err)
			}
			var cost int64
			if !sf.Mapped() {
				cost = datasetCost(sf.Set())
			}
			return d, cost, func() { sf.Close() }, nil
		}
		// mmap datasets are exempt from eviction: their resident cost is
		// page cache the kernel already reclaims.
		return open, !mm, nil
	default:
		return nil, false, fmt.Errorf("%w: zero-value Source", ErrBadOption)
	}
}

// serveMode names how a backend serves: one node-range partition of a
// larger set ("shard"), a scatter-gather tier ("coordinator"), or one
// whole set ("single").
func serveMode(be ShardBackend) string {
	if m := be.Meta(); m.Count > 1 {
		return "shard"
	}
	if _, ok := be.(*Coordinator); ok {
		return "coordinator"
	}
	return "single"
}

// datasetCost is what a set's frame holds resident: offsets, packed
// nodes, the distance step code, and β for weighted sets — the file's size less its
// header.  The HIP indexes its queries build are reported
// (DatasetStats.IndexBytes), not budgeted.
func datasetCost(set *Set) int64 { return core.MemoryOf(set) }

// Attach registers a new dataset under name, materializing it
// immediately (a bad path or set fails the attach, not a later query).
// It fails with ErrDatasetExists when the name is taken.
func (c *Catalog) Attach(name string, src Source) error {
	if err := checkDatasetName(name); err != nil {
		return err
	}
	open, reloadable, err := c.opener(src)
	if err != nil {
		return err
	}
	if err := c.reg.Attach(name, open, reloadable); err != nil {
		if errors.Is(err, catalog.ErrExists) {
			return fmt.Errorf("%w: %q", ErrDatasetExists, name)
		}
		return err
	}
	return nil
}

// Swap atomically publishes a new version of name, attaching it when
// absent, and returns the new version number.  The new version is fully
// materialized before the old one retires, so a failing source leaves
// the old version serving; in-flight queries drain on the old version,
// whose resources (including an mmap'd file's pages) are released only
// when its last reader finishes.
func (c *Catalog) Swap(name string, src Source) (int, error) {
	if err := checkDatasetName(name); err != nil {
		return 0, err
	}
	open, reloadable, err := c.opener(src)
	if err != nil {
		return 0, err
	}
	return c.reg.Swap(name, open, reloadable)
}

// Detach removes name from the catalog.  In-flight queries drain as on
// Swap; new queries naming the dataset fail with ErrUnknownDataset.
func (c *Catalog) Detach(name string) error {
	if err := c.reg.Detach(name); err != nil {
		if errors.Is(err, catalog.ErrUnknown) {
			return fmt.Errorf("%w: %q", ErrUnknownDataset, name)
		}
		return err
	}
	return nil
}

// Close detaches every dataset.  Versions pinned by in-flight queries
// drain as usual.
func (c *Catalog) Close() error {
	c.reg.Close()
	return nil
}

// Datasets returns the attached dataset names, sorted.
func (c *Catalog) Datasets() []string { return c.reg.Names() }

// resolve maps an empty per-request dataset name to the default.
func resolve(name string) string {
	if name == "" {
		return DefaultDataset
	}
	return name
}

// Dataset is a pinned reference to one version of a catalog dataset.
// Its backend stays valid — a version swapped out or detached underneath
// is not released — until Release.  Every acquired Dataset must be
// released exactly once (Release is idempotent).
type Dataset struct {
	h *catalog.Handle[dataset]
}

// Backend returns the pinned version's serving backend.
func (d *Dataset) Backend() ShardBackend { return d.h.Value.be }

// Version returns the pinned version number (1 on first attach, bumped
// by every swap).
func (d *Dataset) Version() int { return d.h.Version }

// Release drops the pin.
func (d *Dataset) Release() { d.h.Release() }

// Acquire pins the current version of a dataset ("" = the default) and
// returns a handle on it — the long-form API for callers that want to
// issue several queries against one coherent version, or to reach the
// backend's typed surface (e.g. Engine methods).  An evicted dataset is
// reloaded first.
func (c *Catalog) Acquire(name string) (*Dataset, error) {
	h, err := c.reg.Acquire(resolve(name))
	if err != nil {
		if errors.Is(err, catalog.ErrUnknown) {
			return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, resolve(name))
		}
		return nil, err
	}
	return &Dataset{h: h}, nil
}

// AcquireResident pins the current version of a dataset ("" = the
// default) only when it is already materialized: unlike Acquire it never
// reloads an evicted dataset and never refreshes its LRU position, so
// monitoring paths can inspect a backend without disturbing the memory
// budget.  It returns nil for unknown or evicted datasets.
func (c *Catalog) AcquireResident(name string) *Dataset {
	h := c.reg.AcquireResident(resolve(name))
	if h == nil {
		return nil
	}
	return &Dataset{h: h}
}

// Do answers one protocol request, routed by Request.Dataset ("" = the
// default dataset).  The resolved backend sees the request with Dataset
// cleared — routing happens exactly once, so a catalog in front of
// remote workers does not re-route by name on the far side — and the
// response is bit-for-bit the one a standalone Engine over the same
// sketch set returns.
func (c *Catalog) Do(ctx context.Context, req Request) (Response, error) {
	name := resolve(req.Dataset)
	req.Dataset = ""
	var resp Response
	err := c.reg.View(name, func(v dataset, _ int) error {
		var verr error
		resp, verr = v.be.Do(ctx, req)
		return verr
	})
	if err != nil {
		if errors.Is(err, catalog.ErrUnknown) {
			return Response{}, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
		}
		return Response{}, err
	}
	return resp, nil
}

// DoBatch answers a batch of protocol requests with Engine.DoBatch's
// semantics (per-request failures inline; only context cancellation
// fails the call), pinning each referenced dataset once for the whole
// batch — so a batch overlapping a Swap answers every request from one
// version, never a mix.
func (c *Catalog) DoBatch(ctx context.Context, reqs []Request) ([]Response, error) {
	type pin struct {
		d   *Dataset
		err error
	}
	// The overwhelmingly common batch targets a single dataset (usually
	// the default), so its pin lives in locals and the map materializes
	// only when a second name appears — the single-dataset path does no
	// per-batch map allocation or per-request map lookups.
	var (
		firstName string
		first     *pin
		pins      map[string]*pin
	)
	defer func() {
		if first != nil && first.d != nil {
			first.d.Release()
		}
		for _, p := range pins {
			if p.d != nil {
				p.d.Release()
			}
		}
	}()
	out := make([]Response, len(reqs))
	for i := range reqs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		name := resolve(reqs[i].Dataset)
		var p *pin
		switch {
		case first != nil && name == firstName:
			p = first
		case pins != nil:
			p = pins[name]
		}
		if p == nil {
			d, err := c.Acquire(name)
			p = &pin{d: d, err: err}
			if first == nil {
				firstName, first = name, p
			} else {
				if pins == nil {
					pins = make(map[string]*pin)
				}
				pins[name] = p
			}
		}
		if p.err != nil {
			out[i] = Response{ID: reqs[i].ID, Error: p.err.Error()}
			continue
		}
		req := reqs[i]
		req.Dataset = ""
		resp, err := p.d.Backend().Do(ctx, req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			out[i] = Response{ID: reqs[i].ID, Error: err.Error()}
			continue
		}
		out[i] = resp
	}
	return out, nil
}

// DatasetStats is the lifecycle and serving snapshot of one dataset —
// the per-dataset payload of the adsserver /v1/datasets and /statsz
// endpoints.
type DatasetStats struct {
	// Name is the catalog key.
	Name string `json:"name"`
	// Version counts publishes: 1 on first attach, +1 per swap.
	Version int `json:"version"`
	// Refs counts queries currently pinning the current version.
	Refs int `json:"refs"`
	// Draining counts swapped-out versions still held by in-flight
	// queries (their resources are released when this returns to 0).
	Draining int `json:"draining"`
	// Resident reports whether the dataset is materialized; an evicted
	// dataset reloads on its next query.
	Resident bool `json:"resident"`
	// Evictable reports whether the memory-budget LRU may evict it.
	Evictable bool `json:"evictable"`
	// Evictions counts budget evictions so far.
	Evictions int64 `json:"evictions,omitempty"`
	// Bytes is the estimated resident cost charged to the budget.
	Bytes int64 `json:"bytes,omitempty"`
	// Mmap reports a dataset served from an mmap'd v3 file.
	Mmap bool `json:"mmap,omitempty"`
	// Path is the backing file, for file-backed datasets.
	Path string `json:"path,omitempty"`
	// FileVersion is the backing file's codec version, SketchFormatVersion
	// (0 = not file-backed).
	FileVersion int `json:"file_version,omitempty"`
	// Mode names how the current version serves: "single" (one whole
	// set), "shard" (one partition), or "coordinator" (scatter-gather);
	// empty while evicted.
	Mode string `json:"mode,omitempty"`
	// Meta is the serving identity of the current version (nil while
	// evicted).
	Meta *ShardMeta `json:"meta,omitempty"`
	// Cache is the version's index-cache snapshot, when its backend
	// reports one (nil while evicted or for remote backends).
	Cache *CacheStats `json:"cache,omitempty"`
	// IndexBytes is the heap the version's HIP indexes hold beyond Bytes —
	// one built per node on its first query, so it grows with the nodes
	// queried, and 0 for backends that are not a local Engine — and
	// IndexBytesPerNode the same per served node.
	IndexBytes        int64   `json:"index_bytes,omitempty"`
	IndexBytesPerNode float64 `json:"index_bytes_per_node,omitempty"`
}

// CatalogStats is a point-in-time snapshot of the whole catalog.
type CatalogStats struct {
	// Default is the name empty-dataset queries route to.
	Default string `json:"default"`
	// BudgetBytes is the eviction budget (0 = unlimited).
	BudgetBytes int64 `json:"budget_bytes,omitempty"`
	// ResidentBytes sums the estimated cost of materialized versions,
	// including swapped-out versions still draining.
	ResidentBytes int64 `json:"resident_bytes"`
	// Datasets lists every dataset, sorted by name.
	Datasets []DatasetStats `json:"datasets"`
}

// Stats snapshots every dataset's lifecycle counters, version, and (for
// resident datasets) serving identity and cache counters.
func (c *Catalog) Stats() CatalogStats {
	out := CatalogStats{
		Default:     DefaultDataset,
		BudgetBytes: c.reg.Budget(),
		Datasets:    []DatasetStats{},
	}
	c.reg.Each(func(st catalog.Stats, v dataset, resident bool) {
		ds := DatasetStats{
			Name:      st.Name,
			Version:   st.Version,
			Refs:      st.Refs,
			Draining:  st.Draining,
			Resident:  st.Resident,
			Evictable: st.Reloadable,
			Evictions: st.Evictions,
			Bytes:     st.Cost,
		}
		if resident {
			ds.Mmap = v.mmapped
			ds.Path = v.path
			if v.path != "" {
				ds.FileVersion = SketchFormatVersion
			}
			meta := v.be.Meta()
			ds.Meta = &meta
			ds.Mode = serveMode(v.be)
			if cs, ok := v.be.(cacheStatser); ok {
				cache := cs.CacheStats()
				ds.Cache = &cache
			}
			if e, ok := v.be.(*Engine); ok && meta.Hi > meta.Lo {
				ds.IndexBytes = e.IndexBytes()
				ds.IndexBytesPerNode = float64(ds.IndexBytes) / float64(meta.Hi-meta.Lo)
			}
		}
		out.Datasets = append(out.Datasets, ds)
	})
	out.ResidentBytes = c.reg.Resident()
	return out
}
