package main

import (
	"encoding/json"
	"log"
	"sort"
	"sync"

	"adsketch"
)

// The streaming-ingest tier of adsserver: with -ingest, POST
// /v1/ingest/{dataset} accepts JSON edge batches, feeds them to a
// per-dataset incremental sketch maintainer (created lazily from the
// empty graph on first use), and publishes frozen versions into the
// serving catalog every -freeze-every edges — zero-downtime hot-swaps,
// so concurrent queries always answer from the last published version.

// ingestConfig carries the -ingest* flags into the manager.
type ingestConfig struct {
	freezeEvery int
	k           int
	seed        uint64
	directed    bool
	dir         string
	mmap        bool
}

// ingestManager owns one Ingestor per ingest dataset.  Creation is lazy:
// the first batch POSTed to a name creates an empty-graph ingestor
// publishing under that name.
type ingestManager struct {
	cfg ingestConfig
	cat *adsketch.Catalog

	mu        sync.Mutex
	ingestors map[string]*adsketch.Ingestor // guarded by mu
}

func newIngestManager(cat *adsketch.Catalog, cfg ingestConfig) *ingestManager {
	return &ingestManager{cfg: cfg, cat: cat, ingestors: make(map[string]*adsketch.Ingestor)}
}

// get returns the dataset's ingestor, creating it on first use.
func (im *ingestManager) get(name string) (*adsketch.Ingestor, error) {
	im.mu.Lock()
	defer im.mu.Unlock()
	if ing, ok := im.ingestors[name]; ok {
		return ing, nil
	}
	opts := []adsketch.IngestorOption{
		adsketch.WithPublish(im.cat, name),
		adsketch.WithFreezeEvery(im.cfg.freezeEvery),
	}
	if im.cfg.dir != "" {
		opts = append(opts, adsketch.WithPublishDir(im.cfg.dir))
		if im.cfg.mmap {
			opts = append(opts, adsketch.WithPublishMmap())
		}
	}
	ing, err := adsketch.NewEmptyIngestor(im.cfg.directed, im.cfg.k, im.cfg.seed, opts...)
	if err != nil {
		return nil, err
	}
	im.ingestors[name] = ing
	log.Printf("adsserver: ingest dataset %q created (k=%d seed=%d directed=%v freeze-every=%d)",
		name, im.cfg.k, im.cfg.seed, im.cfg.directed, im.cfg.freezeEvery)
	return ing, nil
}

// stats snapshots every ingestor, ordered by dataset name.
func (im *ingestManager) stats() []adsketch.IngestorStats {
	im.mu.Lock()
	defer im.mu.Unlock()
	out := make([]adsketch.IngestorStats, 0, len(im.ingestors))
	for _, ing := range im.ingestors {
		out = append(out, ing.Stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dataset < out[j].Dataset })
	return out
}

// wireEdge is one edge of an ingest batch; "w" omitted or 0 means a
// unit-length edge, and any other "w" must be positive and finite.
type wireEdge struct {
	U int32   `json:"u"`
	V int32   `json:"v"`
	W float64 `json:"w,omitempty"`
}

// ingestBody is the POST /v1/ingest/{dataset} payload.  A bare JSON
// array of edges is accepted as shorthand for {"edges": [...]}.
type ingestBody struct {
	Edges []wireEdge `json:"edges"`
	// Freeze forces a freeze-and-publish after the batch, regardless of
	// the -freeze-every threshold.
	Freeze bool `json:"freeze,omitempty"`
}

// ingestResult is the POST /v1/ingest/{dataset} response.
type ingestResult struct {
	Dataset  string `json:"dataset"`
	Accepted int    `json:"accepted"`
	Pending  int64  `json:"pending_edges"`
	Freezes  int64  `json:"freezes"`
	Version  int    `json:"version,omitempty"`
}

// parseIngestBody decodes either body shape.
func parseIngestBody(body []byte) (ingestBody, error) {
	var ib ingestBody
	for _, c := range body {
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' {
			continue
		}
		if c == '[' {
			err := json.Unmarshal(body, &ib.Edges)
			return ib, err
		}
		break
	}
	err := json.Unmarshal(body, &ib)
	return ib, err
}
