package main

// End-to-end tests of the streaming-ingest tier: POST /v1/ingest edge
// batches maintain a dataset incrementally and publish frozen versions
// through the catalog, and — the acceptance scenario — continuous query
// load across many ingest publishes sees zero failed requests and only
// published (never partial) state.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"adsketch"
)

// ingestServer serves a fresh empty catalog with the ingest tier enabled.
func ingestServer(t *testing.T, cfg ingestConfig) (*httptest.Server, *adsketch.Catalog) {
	t.Helper()
	cat, err := adsketch.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(cat)
	srv.ing = newIngestManager(cat, cfg)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { cat.Close() })
	return ts, cat
}

// postIngest POSTs a raw body to /v1/ingest/{dataset} and decodes the
// result, failing on any non-200.
func postIngest(t *testing.T, baseURL, dataset string, body string) ingestResult {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/ingest/"+dataset, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/ingest/%s: status %d: %s", dataset, resp.StatusCode, payload)
	}
	var res ingestResult
	if err := json.Unmarshal(payload, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestIngestEndpoint(t *testing.T) {
	ts, _ := ingestServer(t, ingestConfig{freezeEvery: 4, k: 8, seed: 42})

	// Object form, below the freeze threshold: accepted but not yet
	// published — querying the dataset still 404s.
	res := postIngest(t, ts.URL, "live", `{"edges":[{"u":0,"v":1},{"u":1,"v":2}]}`)
	if res.Accepted != 2 || res.Pending != 2 || res.Freezes != 0 || res.Version != 0 {
		t.Fatalf("first batch: %+v", res)
	}
	q, err := http.Post(ts.URL+"/v1/query", "application/json",
		bytes.NewReader([]byte(`{"dataset":"live","closeness":{"nodes":[0]}}`)))
	if err != nil {
		t.Fatal(err)
	}
	q.Body.Close()
	if q.StatusCode != http.StatusNotFound {
		t.Fatalf("query before first publish: status %d, want 404", q.StatusCode)
	}

	// Bare-array form crossing the threshold: freeze #1 publishes.
	res = postIngest(t, ts.URL, "live", `[{"u":2,"v":3},{"u":3,"v":4,"w":2.5}]`)
	if res.Accepted != 2 || res.Pending != 0 || res.Freezes != 1 || res.Version != 1 {
		t.Fatalf("threshold batch: %+v", res)
	}

	// Explicit freeze publishes version 2 even with one pending edge.
	res = postIngest(t, ts.URL, "live", `{"edges":[{"u":4,"v":0}],"freeze":true}`)
	if res.Pending != 0 || res.Freezes != 2 || res.Version != 2 {
		t.Fatalf("explicit freeze: %+v", res)
	}

	// The published dataset answers queries now.
	q, err = http.Post(ts.URL+"/v1/query", "application/json",
		bytes.NewReader([]byte(`{"dataset":"live","neighborhood":{"unbounded":true,"nodes":[0]}}`)))
	if err != nil {
		t.Fatal(err)
	}
	var qr adsketch.Response
	if err := json.NewDecoder(q.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	q.Body.Close()
	if q.StatusCode != http.StatusOK || qr.Error != "" {
		t.Fatalf("query after publish: status %d, error %q", q.StatusCode, qr.Error)
	}
	// 5 nodes in one connected component: the k=8 sketch is exact.
	if len(qr.Scores) != 1 || qr.Scores[0] != 5 {
		t.Fatalf("reachability estimate %v, want [5]", qr.Scores)
	}

	// Bad batches are the caller's mistake.
	for _, bad := range []string{`{"edges":[{"u":-1,"v":2}]}`, `{"edges":[{"u":0,"v":1,"w":-3}]}`, `not json`} {
		resp, err := http.Post(ts.URL+"/v1/ingest/live", "application/json", bytes.NewReader([]byte(bad)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/ingest/bad%20name", "application/json", bytes.NewReader([]byte(`[]`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad dataset name: status %d, want 400", resp.StatusCode)
	}

	// /statsz reports the ingest tier: lag, counters, last version.
	sresp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st statszBody
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.IngestedEdges != 5 || len(st.Ingest) != 1 {
		t.Fatalf("statsz ingest section: edges=%d datasets=%d", st.IngestedEdges, len(st.Ingest))
	}
	ist := st.Ingest[0]
	if ist.Dataset != "live" || ist.Freezes != 2 || ist.LastVersion != 2 ||
		ist.PendingEdges != 0 || ist.PublishLagSeconds < 0 || ist.Maintainer.Edges != 5 {
		t.Fatalf("statsz ingest stats: %+v", ist)
	}
}

// TestIngestDisabled: without -ingest the endpoint is not registered.
func TestIngestDisabled(t *testing.T) {
	dir := t.TempDir()
	path, _ := buildV3File(t, dir, "a.v3.ads", 42)
	ts, _ := catalogServer(t, adsketch.FileSource(path))
	resp, err := http.Post(ts.URL+"/v1/ingest/live", "application/json", bytes.NewReader([]byte(`[]`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ingest on a non-ingest server: status %d, want 404", resp.StatusCode)
	}
}

// TestIngestRefusesHostileNodeID: one edge naming node 2³¹−1 would have
// the maintainer allocate per-node state for 2³¹ nodes.  It is refused
// with 400 before anything grows, naming the ID; nothing of the batch is
// accepted, and the published dataset keeps answering.
func TestIngestRefusesHostileNodeID(t *testing.T) {
	ts, _ := ingestServer(t, ingestConfig{freezeEvery: 100, k: 8, seed: 42})
	postIngest(t, ts.URL, "live", `{"edges":[{"u":0,"v":1},{"u":1,"v":2}],"freeze":true}`)

	resp, err := http.Post(ts.URL+"/v1/ingest/live", "application/json",
		bytes.NewReader([]byte(`{"edges":[{"u":2147483647,"v":0}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(payload, []byte("2147483647")) {
		t.Fatalf("hostile node ID: status %d: %s, want 400 naming the ID", resp.StatusCode, payload)
	}
	var res ingestResult
	if err := json.Unmarshal(payload, &res); err != nil || res.Accepted != 0 {
		t.Fatalf("hostile batch reported %d accepted (%v)", res.Accepted, err)
	}

	sresp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st statszBody
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.IngestedEdges != 2 || len(st.Ingest) != 1 || st.Ingest[0].Maintainer.Nodes != 3 || st.Ingest[0].Maintainer.Edges != 2 {
		t.Fatalf("after the refused batch: ingested %d, ingest stats %+v", st.IngestedEdges, st.Ingest)
	}

	q, err := http.Post(ts.URL+"/v1/query", "application/json",
		bytes.NewReader([]byte(`{"dataset":"live","neighborhood":{"unbounded":true,"nodes":[0]}}`)))
	if err != nil {
		t.Fatal(err)
	}
	var qr adsketch.Response
	if err := json.NewDecoder(q.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	q.Body.Close()
	if q.StatusCode != http.StatusOK || qr.Error != "" || len(qr.Scores) != 1 || qr.Scores[0] != 3 {
		t.Fatalf("query after the refused batch: status %d, error %q, scores %v, want [3]", q.StatusCode, qr.Error, qr.Scores)
	}
}

// ingestPrefixEstimate computes the reachability estimate a published
// version frozen after the first n stream edges must serve for the probe
// node: a full Build of the prefix graph (nodes up to the largest ID
// seen, exactly how the ingestor grows) — published versions are
// bit-for-bit rebuilds, so the served score must equal one of these.
func ingestPrefixEstimate(t *testing.T, edges []adsketch.Edge, n int, k int, seed uint64, probe int32) float64 {
	t.Helper()
	maxID := int32(-1)
	for _, e := range edges[:n] {
		if e.U > maxID {
			maxID = e.U
		}
		if e.V > maxID {
			maxID = e.V
		}
	}
	b := adsketch.NewGraphBuilder(int(maxID)+1, false)
	for _, e := range edges[:n] {
		b.AddEdge(e.U, e.V)
	}
	set, err := adsketch.Build(b.Build(), adsketch.WithK(k), adsketch.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := adsketch.NewEngine(set)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := eng.Do(context.Background(), adsketch.Request{
		Neighborhood: &adsketch.NeighborhoodQuery{Unbounded: true, Nodes: []int32{probe}},
	})
	if err != nil || resp.Error != "" {
		t.Fatalf("prefix %d: %v %q", n, err, resp.Error)
	}
	return resp.Scores[0]
}

// TestIngestPublishZeroDowntime is the acceptance scenario: continuous
// query load on an ingest dataset while edge batches stream in and
// trigger many freeze-and-publish cycles.  Requirements: zero failed
// requests, every served answer equals a published checkpoint (a full
// rebuild of some frozen stream prefix — never partial delta state), and
// the final version matches a full rebuild of everything ingested.
func TestIngestPublishZeroDowntime(t *testing.T) {
	const (
		nodes       = 300
		totalEdges  = 900
		batchSize   = 30
		freezeEvery = 60
		k           = 8
		seed        = 42
	)
	ts, _ := ingestServer(t, ingestConfig{freezeEvery: freezeEvery, k: k, seed: seed})

	src, err := adsketch.NewRandomEdgeSource(nodes, totalEdges, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	var edges []adsketch.Edge
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		edges = append(edges, e)
	}
	// Probe a node present from the very first batch: version 1 already
	// answers for it, so the query load runs failure-free from the start.
	probe := edges[0].U

	// The freeze schedule: version 1 is the explicit freeze after the
	// first batch (30 edges), automatic freezes fire every 60 edges after
	// (90, 150, ..., 870), and the final batch freezes explicitly at 900.
	// Every answer the load observes must equal one of these checkpoints.
	freezePoints := []int{batchSize}
	for at := batchSize + freezeEvery; at < totalEdges; at += freezeEvery {
		freezePoints = append(freezePoints, at)
	}
	freezePoints = append(freezePoints, totalEdges)
	valid := make(map[float64]int, len(freezePoints))
	for _, n := range freezePoints {
		valid[ingestPrefixEstimate(t, edges, n, k, seed, probe)] = n
	}

	first, err := json.Marshal(map[string]any{"edges": wireEdges(edges[:batchSize]), "freeze": true})
	if err != nil {
		t.Fatal(err)
	}
	postIngest(t, ts.URL, "live", string(first))

	var (
		stop     atomic.Bool
		queries  atomic.Int64
		failures atomic.Int64
		badScore atomic.Int64
	)
	var wg sync.WaitGroup
	queryBody, err := json.Marshal(adsketch.Request{
		Dataset:      "live",
		Neighborhood: &adsketch.NeighborhoodQuery{Unbounded: true, Nodes: []int32{probe}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(queryBody))
				if err != nil {
					failures.Add(1)
					continue
				}
				var qr adsketch.Response
				decErr := json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				queries.Add(1)
				if decErr != nil || resp.StatusCode != http.StatusOK || qr.Error != "" || len(qr.Scores) != 1 {
					failures.Add(1)
					continue
				}
				if _, ok := valid[qr.Scores[0]]; !ok {
					badScore.Add(1)
				}
			}
		}()
	}

	var lastRes ingestResult
	for at := batchSize; at < totalEdges; at += batchSize {
		end := at + batchSize
		if end > totalEdges {
			end = totalEdges
		}
		payload, err := json.Marshal(map[string]any{"edges": wireEdges(edges[at:end]), "freeze": end == totalEdges})
		if err != nil {
			t.Fatal(err)
		}
		lastRes = postIngest(t, ts.URL, "live", string(payload))
	}
	stop.Store(true)
	wg.Wait()

	if int(lastRes.Freezes) != len(freezePoints) {
		t.Fatalf("%d publishes, expected %d — the checkpoint schedule drifted", lastRes.Freezes, len(freezePoints))
	}
	if got := failures.Load(); got != 0 {
		t.Fatalf("%d failed requests out of %d during %d publishes", got, queries.Load(), lastRes.Freezes)
	}
	if got := badScore.Load(); got != 0 {
		t.Fatalf("%d answers out of %d matched no published checkpoint (partial state served?)", got, queries.Load())
	}
	if queries.Load() == 0 {
		t.Fatal("query load never ran")
	}
	t.Logf("%d queries, 0 failures, every answer a published checkpoint, %d publishes (final version %d)",
		queries.Load(), lastRes.Freezes, lastRes.Version)
}

// wireEdges converts edges to the wire shape of the ingest endpoint.
func wireEdges(edges []adsketch.Edge) []wireEdge {
	out := make([]wireEdge, len(edges))
	for i, e := range edges {
		out[i] = wireEdge{U: e.U, V: e.V, W: e.W}
	}
	return out
}
