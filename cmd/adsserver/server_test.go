package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"adsketch"
)

// newTestServer builds a small sketch set, round-trips it through a real
// sketch file (the same artifact flow adsserver uses in production), and
// serves it as a catalog's default dataset from an httptest server.
func newTestServer(t *testing.T) (*httptest.Server, *adsketch.Engine) {
	t.Helper()
	g := adsketch.PreferentialAttachment(400, 3, 7)
	set, err := adsketch.Build(g, adsketch.WithK(8), adsketch.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sketches.ads")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	loaded, err := adsketch.ReadSketchSet(rf)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := adsketch.NewEngine(loaded)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := adsketch.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Attach(adsketch.DefaultDataset, adsketch.BackendSource(eng)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(cat).mux())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { cat.Close() })
	return ts, eng
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestServerClosenessBatch is the acceptance path: a closeness batch
// POSTed to /v1/query must come back with scores identical to the direct
// Engine call on the same sketches.
func TestServerClosenessBatch(t *testing.T) {
	ts, eng := newTestServer(t)
	nodes := []int32{0, 17, 123, 399}
	want, err := eng.Closeness(context.Background(), nodes...)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/query", adsketch.Request{
		ID:        "c1",
		Closeness: &adsketch.ClosenessQuery{Nodes: nodes},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got adsketch.Response
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != "c1" || got.Kind != "closeness" || got.Error != "" {
		t.Fatalf("response envelope: %+v", got)
	}
	if len(got.Scores) != len(nodes) {
		t.Fatalf("got %d scores for %d nodes", len(got.Scores), len(nodes))
	}
	for i := range nodes {
		if got.Scores[i] != want[i] {
			t.Errorf("node %d: HTTP score %v, direct %v", nodes[i], got.Scores[i], want[i])
		}
	}
}

func TestServerBatchArray(t *testing.T) {
	ts, eng := newTestServer(t)
	ctx := context.Background()
	wantTop, err := eng.TopCloseness(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantSizes, err := eng.NeighborhoodSizes(ctx, 2, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}

	reqs := []adsketch.Request{
		{ID: "top", TopK: &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 5}},
		{ID: "sizes", Neighborhood: &adsketch.NeighborhoodQuery{Radius: 2, Nodes: []int32{1, 2, 3}}},
		{ID: "bad", Neighborhood: &adsketch.NeighborhoodQuery{Radius: -1, Nodes: []int32{1}}},
	}
	resp, body := postJSON(t, ts.URL+"/v1/query", reqs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got []adsketch.Response
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d responses", len(got))
	}
	if len(got[0].Ranking) != 5 {
		t.Fatalf("topk ranking: %+v", got[0].Ranking)
	}
	for i, r := range got[0].Ranking {
		if r != wantTop[i] {
			t.Errorf("ranking[%d] = %+v, want %+v", i, r, wantTop[i])
		}
	}
	for i, s := range got[1].Scores {
		if s != wantSizes[i] {
			t.Errorf("sizes[%d] = %v, want %v", i, s, wantSizes[i])
		}
	}
	// The malformed request fails alone, inside the batch.
	if got[2].Error == "" || got[2].ID != "bad" {
		t.Errorf("bad request in batch: %+v", got[2])
	}
}

func TestServerErrorStatuses(t *testing.T) {
	ts, _ := newTestServer(t)
	// No query set -> 400.
	resp, _ := postJSON(t, ts.URL+"/v1/query", adsketch.Request{ID: "empty"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty request: status %d, want 400", resp.StatusCode)
	}
	// Undecodable body -> 400.
	r2, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", r2.StatusCode)
	}
}

func TestServerHealthAndStats(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// Issue one query, then check the counters moved.
	resp2, body := postJSON(t, ts.URL+"/v1/query", adsketch.Request{
		Harmonic: &adsketch.HarmonicQuery{Nodes: []int32{5, 5, 9}},
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp2.StatusCode, body)
	}

	resp3, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var st statszBody
	if err := json.NewDecoder(resp3.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Kind != "uniform" || st.Nodes != 400 || st.K != 8 || st.FormatVersion != adsketch.SketchFormatVersion {
		t.Errorf("statsz metadata: %+v", st)
	}
	if st.Queries != 1 || st.Batches != 1 || st.Failures != 0 {
		t.Errorf("statsz counters: %+v", st)
	}
	if st.Cache.Slots != 400 || st.Cache.Built == 0 || st.Cache.Hits+st.Cache.Misses == 0 {
		t.Errorf("statsz cache: %+v", st.Cache)
	}
	// Serving memory: the query built the HIP indexes of the nodes it
	// named, each sized by its entries (one adjusted weight each) and
	// distance steps: under 8 bytes an entry of the set plus 512 a node.
	if len(st.Datasets) != 1 {
		t.Fatalf("statsz datasets: %+v", st.Datasets)
	}
	ds := st.Datasets[0]
	if ds.IndexBytes <= 0 || ds.IndexBytesPerNode != float64(ds.IndexBytes)/400 || ds.IndexBytes > int64(8*st.TotalEntries+512*400) {
		t.Errorf("statsz serving memory: index %d B (%.1f B/node) for %d entries", ds.IndexBytes, ds.IndexBytesPerNode, st.TotalEntries)
	}
}
