package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"mime"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"adsketch"
	"adsketch/internal/distbuild"
	"adsketch/internal/wire"
)

// maxBodyBytes bounds one request body; a batch of a few thousand
// queries fits comfortably.
const maxBodyBytes = 16 << 20

// protoHeader is the response header /v1/meta uses to advertise the
// transports this server speaks on /v1/query.  A coordinator dialing a
// worker refuses it unless the advertisement names the binary framing,
// the only encoding of the coordinator→worker hop.
const protoHeader = "Ads-Protocols"

// advertisedProtocols lists the /v1/query content types this build
// accepts, preferred first.
const advertisedProtocols = wire.ContentType + ", application/json"

// isBinaryContentType reports whether a request body is the binary wire
// framing (parameters like charset are ignored; anything else — JSON,
// empty, malformed — takes the JSON path, keeping curl the easy case).
func isBinaryContentType(ct string) bool {
	mt, _, err := mime.ParseMediaType(ct)
	return err == nil && mt == wire.ContentType
}

// setInfo is the optional backend face for sketch-set payload counters.
type setInfo interface {
	Set() adsketch.SketchSet
}

// server is the HTTP face of a dataset catalog.  It is deliberately
// thin: query semantics live in the adsketch protocol layer and dataset
// lifecycle in the Catalog, so the handlers only decode, dispatch,
// encode, and count.  Queries route by Request.Dataset (empty = the
// catalog's default dataset); the admin endpoints attach, swap, and
// detach datasets from server-side paths while traffic is live.
type server struct {
	cat    *adsketch.Catalog
	ing    *ingestManager           // nil unless -ingest
	prober *prober                  // nil unless -workers with -probe-interval
	build  *distbuild.WorkerHandler // nil unless -buildworker
	start  time.Time

	queries  atomic.Int64 // protocol requests evaluated (batch items count individually)
	batches  atomic.Int64 // POST /v1/query calls
	failures atomic.Int64 // requests answered with an error
	ingested atomic.Int64 // edges accepted through /v1/ingest

	// Fault injection (-fault-inject): a load harness flips these through
	// POST /debugz/fault to rehearse a slow or dead worker without
	// touching the process.  While dead, /healthz and /v1/query answer
	// 503, so an upstream coordinator's prober ejects this worker and its
	// partial-failure policy sees a cleanly classified outage.
	faultInject  bool         // the endpoint is exposed at all
	faultDead    atomic.Bool  // answer 503 to queries and health probes
	faultLatency atomic.Int64 // added per-query latency, milliseconds
}

func newServer(cat *adsketch.Catalog) *server {
	return &server{cat: cat, start: time.Now()}
}

// defaultDataset returns the catalog's default dataset from a stats
// snapshot, or nil when none is attached.
func defaultDataset(cst *adsketch.CatalogStats) *adsketch.DatasetStats {
	for i := range cst.Datasets {
		if cst.Datasets[i].Name == cst.Default {
			return &cst.Datasets[i]
		}
	}
	return nil
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/meta", s.handleMeta)
	mux.HandleFunc("GET /v1/datasets", s.handleDatasetList)
	mux.HandleFunc("POST /v1/datasets/{name}", s.handleDatasetSwap)
	mux.HandleFunc("DELETE /v1/datasets/{name}", s.handleDatasetDetach)
	if s.ing != nil {
		mux.HandleFunc("POST /v1/ingest/{dataset}", s.handleIngest)
	}
	if s.build != nil {
		s.build.Register(mux)
	}
	if s.faultInject {
		mux.HandleFunc("POST /debugz/fault", s.handleFault)
		mux.HandleFunc("GET /debugz/fault", s.handleFaultGet)
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Marshal before writing the header, so an unencodable payload (e.g.
	// a non-finite score from degenerate sketch data) surfaces as a 500
	// instead of a silent empty 200.
	payload, err := json.Marshal(v)
	if err != nil {
		log.Printf("adsserver: encoding response: %v", err)
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(append(payload, '\n')); err != nil {
		log.Printf("adsserver: writing response: %v", err)
	}
}

type errorBody struct {
	Error string `json:"error"`
}

// statusFor maps protocol and catalog errors to HTTP statuses: client
// mistakes are 400, unknown datasets 404, conflicting attaches 409,
// queries this sketch set cannot answer 422, the rest is 500.  (A
// missing backing file is only a client mistake on the admin swap path,
// which maps it separately; on the query path it is a server-side 500.)
func statusFor(err error) int {
	switch {
	case errors.Is(err, adsketch.ErrBadRequest), errors.Is(err, adsketch.ErrBadOption):
		return http.StatusBadRequest
	case errors.Is(err, adsketch.ErrUnknownDataset):
		return http.StatusNotFound
	case errors.Is(err, adsketch.ErrDatasetExists):
		return http.StatusConflict
	case errors.Is(err, adsketch.ErrUnsupportedQuery):
		return http.StatusUnprocessableEntity
	case errors.Is(err, adsketch.ErrShardUnavailable),
		errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// handleQuery serves POST /v1/query.  The body is either one Request
// object (answered with one Response) or a JSON array of Requests
// (answered with an array of Responses in the same order; per-request
// failures are reported in Response.Error without failing the batch).
// Each request routes to the catalog dataset named by its "dataset"
// field (empty = the default dataset); a batch pins each referenced
// dataset once, so its answers never mix two versions across a
// concurrent swap.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.batches.Add(1)
	if err := s.injectFault(r.Context()); err != nil {
		s.failures.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	buf := wire.Get()
	defer buf.Free()
	body, err := wire.ReadAll(buf.B, http.MaxBytesReader(w, r.Body, maxBodyBytes))
	buf.B = body // keep the grown capacity pooled
	if err != nil {
		s.failures.Add(1)
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge // split the batch
		}
		writeJSON(w, status, errorBody{Error: "reading body: " + err.Error()})
		return
	}
	// The response speaks whatever the request spoke: binary frames get
	// binary answers, everything else stays JSON.  Errors are always
	// JSON (with their HTTP status), so a confused client sees a
	// readable message, not an opaque frame.
	if isBinaryContentType(r.Header.Get("Content-Type")) {
		s.serveQueryBinary(w, r.Context(), body)
		return
	}
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var reqs []adsketch.Request
		if err := json.Unmarshal(body, &reqs); err != nil {
			s.failures.Add(1)
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "decoding request batch: " + err.Error()})
			return
		}
		s.queries.Add(int64(len(reqs)))
		resps, err := s.cat.DoBatch(r.Context(), reqs)
		if err != nil {
			s.failures.Add(1)
			writeJSON(w, statusFor(err), errorBody{Error: err.Error()})
			return
		}
		for i := range resps {
			if resps[i].Error != "" {
				s.failures.Add(1)
			}
		}
		writeJSON(w, http.StatusOK, resps)
		return
	}
	var req adsketch.Request
	if err := json.Unmarshal(body, &req); err != nil {
		s.failures.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "decoding request: " + err.Error()})
		return
	}
	s.queries.Add(1)
	resp, err := s.cat.Do(r.Context(), req)
	if err != nil {
		s.failures.Add(1)
		writeJSON(w, statusFor(err), errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// serveQueryBinary answers one binary-framed /v1/query body: a single
// frame mirrors the single-object JSON form, a batch frame the array
// form.  Success is a binary frame; failure is a JSON errorBody with
// the usual status mapping.
func (s *server) serveQueryBinary(w http.ResponseWriter, ctx context.Context, body []byte) {
	reqs, batch, err := wire.DecodeRequests(body)
	if err != nil {
		s.failures.Add(1)
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "decoding request frame: " + err.Error()})
		return
	}
	s.queries.Add(int64(len(reqs)))
	out := wire.Get()
	defer out.Free()
	if batch {
		resps, err := s.cat.DoBatch(ctx, reqs)
		if err != nil {
			s.failures.Add(1)
			writeJSON(w, statusFor(err), errorBody{Error: err.Error()})
			return
		}
		for i := range resps {
			if resps[i].Error != "" {
				s.failures.Add(1)
			}
		}
		wire.EncodeResponses(out, resps)
	} else {
		resp, err := s.cat.Do(ctx, reqs[0])
		if err != nil {
			s.failures.Add(1)
			writeJSON(w, statusFor(err), errorBody{Error: err.Error()})
			return
		}
		wire.EncodeResponse(out, &resp)
	}
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(out.B); err != nil {
		log.Printf("adsserver: writing binary response: %v", err)
	}
}

// handleIngest serves POST /v1/ingest/{dataset}: a JSON edge batch —
// either {"edges":[{"u":0,"v":1,"w":1.5},...],"freeze":true} or a bare
// array of edges — applied to the dataset's incremental maintainer.
// The first batch for a name creates its ingestor (empty graph, the
// -ingest-* parameters); every -freeze-every edges, and on "freeze",
// the maintained set freezes and hot-swaps into the catalog, so
// concurrent queries on the dataset never see partial state.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("dataset")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge // split the batch
		}
		writeJSON(w, status, errorBody{Error: "reading body: " + err.Error()})
		return
	}
	ib, err := parseIngestBody(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "decoding edge batch: " + err.Error()})
		return
	}
	ing, err := s.ing.get(name)
	if err != nil {
		writeJSON(w, statusFor(err), errorBody{Error: err.Error()})
		return
	}
	edges := make([]adsketch.Edge, len(ib.Edges))
	for i, e := range ib.Edges {
		edges[i] = adsketch.Edge{U: e.U, V: e.V, W: e.W} // omitted "w" (0) is a unit edge
	}
	n, err := ing.InsertBatch(edges)
	s.ingested.Add(int64(n))
	if err != nil {
		// Rejected edges (negative IDs, bad weights) are the caller's
		// mistake; Accepted reports how far the batch got.
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if ib.Freeze {
		if _, err := ing.Freeze(); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
			return
		}
	}
	st := ing.Stats()
	writeJSON(w, http.StatusOK, ingestResult{
		Dataset:  name,
		Accepted: n,
		Pending:  st.PendingEdges,
		Freezes:  st.Freezes,
		Version:  st.LastVersion,
	})
}

// handleMeta serves GET /v1/meta: the default dataset's serving identity
// — node range, partition position, sketch parameters.  A coordinator
// building its routing table reads this from every worker at startup.
func (s *server) handleMeta(w http.ResponseWriter, r *http.Request) {
	d, err := s.cat.Acquire("")
	if err != nil {
		writeJSON(w, statusFor(err), errorBody{Error: err.Error()})
		return
	}
	defer d.Release()
	// Advertise the query transports: a dialing coordinator refuses a
	// worker whose advertisement lacks the binary framing.
	w.Header().Set(protoHeader, advertisedProtocols)
	writeJSON(w, http.StatusOK, d.Backend().Meta())
}

// handleDatasetList serves GET /v1/datasets: every dataset's name,
// version, reference counts, residency, and serving identity.
func (s *server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cat.Stats())
}

// swapBody is the POST /v1/datasets/{name} payload: a server-side
// sketch file to publish under the name.
type swapBody struct {
	// Path is the sketch file to load, as seen by the server process.
	Path string `json:"path"`
	// Mmap maps the file (v3) instead of decoding it.
	Mmap bool `json:"mmap,omitempty"`
	// Partitions splits the set into in-process shard engines behind a
	// coordinator (0 or 1 = serve unsplit).
	Partitions int `json:"partitions,omitempty"`
}

// swapResult is the POST /v1/datasets/{name} response.
type swapResult struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
}

// handleDatasetSwap serves POST /v1/datasets/{name}: attach a new
// dataset, or atomically publish a new version of an existing one.
// In-flight queries drain on the old version; the swap never drops a
// request.
func (s *server) handleDatasetSwap(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "reading body: " + err.Error()})
		return
	}
	var sb swapBody
	if err := json.Unmarshal(body, &sb); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "decoding body: " + err.Error()})
		return
	}
	if sb.Path == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: `"path" is required (a sketch file on the server)`})
		return
	}
	src := fileSource(sb.Path, sb.Mmap)
	if sb.Partitions > 1 {
		src = src.WithPartitions(sb.Partitions)
	}
	version, err := s.cat.Swap(name, src)
	if err != nil {
		// Here a missing file is the caller's mistake: they named the
		// path in this request.
		status := statusFor(err)
		if errors.Is(err, os.ErrNotExist) {
			status = http.StatusBadRequest
		}
		writeJSON(w, status, errorBody{Error: err.Error()})
		return
	}
	log.Printf("adsserver: dataset %q now serves %s (version %d, mmap=%v)", name, sb.Path, version, sb.Mmap)
	writeJSON(w, http.StatusOK, swapResult{Name: name, Version: version})
}

// handleDatasetDetach serves DELETE /v1/datasets/{name}.  In-flight
// queries drain; subsequent queries naming the dataset get 404.
func (s *server) handleDatasetDetach(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.cat.Detach(name); err != nil {
		writeJSON(w, statusFor(err), errorBody{Error: err.Error()})
		return
	}
	log.Printf("adsserver: dataset %q detached", name)
	writeJSON(w, http.StatusOK, map[string]string{"name": name, "status": "detached"})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.faultDead.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "dead (injected fault)"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// injectFault applies the configured fault to one query: an injected
// outage fails immediately; injected latency sleeps (honoring the
// request's own deadline) before the query proceeds.
func (s *server) injectFault(ctx context.Context) error {
	if !s.faultInject {
		return nil
	}
	if s.faultDead.Load() {
		return errors.New("injected fault: worker is dead")
	}
	if ms := s.faultLatency.Load(); ms > 0 {
		t := time.NewTimer(time.Duration(ms) * time.Millisecond)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	return nil
}

// faultBody is the POST /debugz/fault payload; it replaces the whole
// fault state, so {} clears every fault.
type faultBody struct {
	// Dead makes /v1/query and /healthz answer 503 until cleared.
	Dead bool `json:"dead"`
	// LatencyMS delays every query by this many milliseconds.
	LatencyMS int64 `json:"latency_ms"`
}

// handleFault serves POST /debugz/fault (behind -fault-inject): the
// load harness's lever for rehearsing a slow or dead worker in place.
func (s *server) handleFault(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "reading body: " + err.Error()})
		return
	}
	var fb faultBody
	if err := json.Unmarshal(body, &fb); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "decoding body: " + err.Error()})
		return
	}
	if fb.LatencyMS < 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "latency_ms must be >= 0"})
		return
	}
	s.faultDead.Store(fb.Dead)
	s.faultLatency.Store(fb.LatencyMS)
	log.Printf("adsserver: fault state set: dead=%v latency=%dms", fb.Dead, fb.LatencyMS)
	writeJSON(w, http.StatusOK, fb)
}

// handleFaultGet reports the current fault state.
func (s *server) handleFaultGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, faultBody{
		Dead:      s.faultDead.Load(),
		LatencyMS: s.faultLatency.Load(),
	})
}

// statszBody is the /statsz payload: what is being served, how the
// index caches are doing, and how much traffic has been answered.  The
// top-level serving fields describe the default dataset (the pre-catalog
// shape); Datasets carries every dataset's version, reference counts,
// residency, and cache counters.
type statszBody struct {
	Mode          string               `json:"mode"` // single | shard | coordinator | catalog
	Sketches      string               `json:"sketches,omitempty"`
	Kind          string               `json:"kind,omitempty"`
	FormatVersion int                  `json:"format_version"`
	FileVersion   int                  `json:"file_version,omitempty"` // codec version of the default dataset's file
	Mmap          bool                 `json:"mmap,omitempty"`         // default dataset served from an mmap region
	Nodes         int                  `json:"nodes,omitempty"`        // global node count of the default dataset
	K             int                  `json:"k,omitempty"`
	UptimeSeconds float64              `json:"uptime_seconds"`
	Shard         *adsketch.ShardMeta  `json:"shard,omitempty"`  // shard mode: what this worker owns
	Shards        []adsketch.ShardMeta `json:"shards,omitempty"` // coordinator mode: the routing table

	// Coordinator-mode failure handling: per-partition call, error,
	// retry, and hedge counters, and (with -probe-interval) every
	// worker's probe state.
	Scatter      []adsketch.ShardCallStats `json:"scatter,omitempty"`
	Workers      []workerHealth            `json:"workers,omitempty"`
	LocalNodes   int                       `json:"local_nodes,omitempty"`
	TotalEntries int                       `json:"total_entries,omitempty"`

	Cache adsketch.CacheStats `json:"cache"`

	// The dataset catalog: default routing name, memory budget, and the
	// per-dataset lifecycle (version, refs, draining, residency, cache).
	Default       string                  `json:"default_dataset,omitempty"`
	BudgetBytes   int64                   `json:"budget_bytes,omitempty"`
	ResidentBytes int64                   `json:"resident_bytes,omitempty"`
	Datasets      []adsketch.DatasetStats `json:"datasets"`

	Batches  int64 `json:"batches"`
	Queries  int64 `json:"queries"`
	Failures int64 `json:"failures"`

	// The streaming-ingest tier (-ingest): edges accepted and the
	// per-dataset maintainer snapshots — ingest lag (pending edges and
	// publish staleness), propagation counters, last published version.
	IngestedEdges int64                    `json:"ingested_edges,omitempty"`
	Ingest        []adsketch.IngestorStats `json:"ingest,omitempty"`
}

func (s *server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	cst := s.cat.Stats()
	body := statszBody{
		Mode:          "catalog",
		FormatVersion: adsketch.SketchFormatVersion,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Default:       cst.Default,
		BudgetBytes:   cst.BudgetBytes,
		ResidentBytes: cst.ResidentBytes,
		Datasets:      cst.Datasets,
		Batches:       s.batches.Load(),
		Queries:       s.queries.Load(),
		Failures:      s.failures.Load(),
	}
	if s.ing != nil {
		body.IngestedEdges = s.ingested.Load()
		body.Ingest = s.ing.stats()
	}
	if s.prober != nil {
		body.Workers = s.prober.health()
	}
	// The top-level serving fields mirror the default dataset, keeping
	// the single-set payload shape; a catalog without a default (named
	// datasets only) reports mode "catalog" and the Datasets list alone.
	// Everything comes from the stats snapshot — an evicted default is
	// NOT reloaded just to be described (a monitoring scrape must never
	// thrash the eviction budget); only a resident one is briefly pinned
	// for the pieces stats cannot carry (routing table, set counters).
	if def := defaultDataset(&cst); def != nil {
		body.Sketches = def.Path
		body.FileVersion = def.FileVersion
		body.Mmap = def.Mmap
		if def.Resident && def.Meta != nil {
			body.Mode = def.Mode
			body.Kind = def.Meta.Kind
			body.Nodes = def.Meta.TotalNodes
			body.K = def.Meta.K
			if def.Cache != nil {
				body.Cache = *def.Cache
			}
			if def.Mode == "shard" {
				body.Shard = def.Meta
			}
			if d := s.cat.AcquireResident(""); d != nil {
				be := d.Backend()
				if c, ok := be.(*adsketch.Coordinator); ok {
					body.Shards = c.ShardMetas()
					body.Scatter = c.Stats().Shards
				}
				if si, ok := be.(setInfo); ok {
					set := si.Set()
					body.LocalNodes = set.NumNodes()
					body.TotalEntries = set.TotalEntries()
				}
				d.Release()
			}
		}
	}
	writeJSON(w, http.StatusOK, body)
}
