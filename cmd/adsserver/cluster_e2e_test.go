package main

// End-to-end tests of the scatter-gather topologies: partition files on
// disk, worker servers loading them, a coordinator dialing the workers
// over real HTTP — and byte parity against a single server over the
// unsplit set.

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

// e2eRequests is the query corpus every topology must agree on.
func e2eRequests() []adsketch.Request {
	return []adsketch.Request{
		{ID: "cl", Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0, 199, 200, 399}}},
		{ID: "nb", Neighborhood: &adsketch.NeighborhoodQuery{Radius: 2, Nodes: []int32{5, 350}}},
		{ID: "tk", TopK: &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 7}},
		{ID: "ja", Jaccard: &adsketch.JaccardQuery{A: 1, RadiusA: 2, B: 399, RadiusB: 2}},
		{ID: "iu", Influence: &adsketch.InfluenceQuery{Seeds: []int32{0, 399}, Radius: 2}},
		{ID: "db", DistanceBound: &adsketch.DistanceBoundQuery{A: 2, B: 398}},
		{ID: "sk", Sketch: &adsketch.SketchQuery{Node: 200}},
	}
}

// buildSplitFiles builds a set, saves it whole and as 2 partition
// files, and returns the paths.
func buildSplitFiles(t *testing.T) (whole string, parts []string, set adsketch.SketchSet) {
	t.Helper()
	g := adsketch.PreferentialAttachment(400, 3, 7)
	set, err := adsketch.Build(g, adsketch.WithK(8), adsketch.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	whole = filepath.Join(dir, "whole.ads")
	f, err := os.Create(whole)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	split, err := adsketch.SplitSketchSet(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range split {
		name := filepath.Join(dir, "part"+string(rune('0'+i))+".ads")
		pf, err := os.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.WriteTo(pf); err != nil {
			t.Fatal(err)
		}
		pf.Close()
		parts = append(parts, name)
	}
	return whole, parts, set
}

// TestMmapWorkerParity: workers serving the shard files `adstool split`
// writes through -mmap must answer byte-identically to workers that read
// the same files into memory, both directly and behind a coordinator.
func TestMmapWorkerParity(t *testing.T) {
	whole, parts, _ := buildSplitFiles(t)
	single, _ := serveFile(t, whole, 0)

	body, err := json.Marshal(e2eRequests())
	if err != nil {
		t.Fatal(err)
	}
	post := func(url string) []byte {
		t.Helper()
		resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	var memURLs, mmapURLs []string
	for i := range parts {
		mem, mode := serveFile(t, parts[i], 0)
		if mode != "shard" {
			t.Fatalf("partition file %d served in %q mode", i, mode)
		}
		mm, mode := serveFileMmap(t, parts[i], 0, true)
		if mode != "shard" {
			t.Fatalf("mmap'd partition file %d served in %q mode", i, mode)
		}
		memURLs = append(memURLs, mem.URL)
		mmapURLs = append(mmapURLs, mm.URL)

		// Per-worker parity on an owned-node query.
		meta := struct{ Lo int32 }{}
		r, err := http.Get(mm.URL + "/v1/meta")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&meta); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		owned, _ := json.Marshal(adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{meta.Lo}}})
		postOwned := func(url string) []byte {
			resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(owned))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			return buf.Bytes()
		}
		if a, b := postOwned(mem.URL), postOwned(mm.URL); !bytes.Equal(a, b) {
			t.Errorf("worker %d: mmap answer differs from in-memory:\n  mmap   %s\n  memory %s", i, b, a)
		}
	}

	memCoord, _, err := dialWorkers(memURLs, clusterDefaults())
	if err != nil {
		t.Fatal(err)
	}
	mmapCoord, _, err := dialWorkers(mmapURLs, clusterDefaults())
	if err != nil {
		t.Fatal(err)
	}
	memTS := serveBackend(t, memCoord)
	mmapTS := serveBackend(t, mmapCoord)

	singleBytes := post(single.URL)
	if got := post(mmapTS.URL); !bytes.Equal(got, singleBytes) {
		t.Errorf("mmap-worker coordinator differs from single server:\n  mmap   %s\n  single %s", got, singleBytes)
	}
	if a, b := post(memTS.URL), post(mmapTS.URL); !bytes.Equal(a, b) {
		t.Errorf("mmap-worker coordinator differs from in-memory coordinator:\n  mmap   %s\n  memory %s", b, a)
	}
}

// serveFile spins up one adsserver over a sketch file, exactly as main
// would (buildCatalog + mux), returning the server and the default
// dataset's serving mode.
func serveFile(t *testing.T, path string, partitions int) (*httptest.Server, string) {
	t.Helper()
	return serveFileMmap(t, path, partitions, false)
}

// serveFileMmap is serveFile with the -mmap flag.
func serveFileMmap(t *testing.T, path string, partitions int, useMmap bool) (*httptest.Server, string) {
	t.Helper()
	cat, _, err := buildCatalog(path, "", partitions, useMmap, nil, 0, clusterDefaults())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	cst := cat.Stats()
	var mode string
	if def := defaultDataset(&cst); def != nil {
		mode = def.Mode
	}
	ts := httptest.NewServer(newServer(cat).mux())
	t.Cleanup(ts.Close)
	return ts, mode
}

// serveBackend spins up one adsserver over an already-built backend
// (e.g. a coordinator over dialed workers) as the default dataset.
func serveBackend(t *testing.T, be adsketch.ShardBackend) *httptest.Server {
	t.Helper()
	cat, err := adsketch.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Attach(adsketch.DefaultDataset, adsketch.BackendSource(be)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	ts := httptest.NewServer(newServer(cat).mux())
	t.Cleanup(ts.Close)
	return ts
}

// TestDistributedCoordinatorParity is the full production topology: two
// worker processes each serving one partition file, a coordinator
// dialing them over HTTP, answering byte-identically to a single server
// over the unsplit set.
func TestDistributedCoordinatorParity(t *testing.T) {
	whole, parts, _ := buildSplitFiles(t)
	single, mode := serveFile(t, whole, 0)
	if mode != "single" {
		t.Fatalf("whole file served in %q mode", mode)
	}
	var workerURLs []string
	for i, p := range parts {
		w, mode := serveFile(t, p, 0)
		if mode != "shard" {
			t.Fatalf("partition file %d served in %q mode", i, mode)
		}
		workerURLs = append(workerURLs, w.URL)
	}
	coordBE, _, err := dialWorkers(workerURLs, clusterDefaults())
	if err != nil {
		t.Fatal(err)
	}
	coord := serveBackend(t, coordBE)

	body, err := json.Marshal(e2eRequests())
	if err != nil {
		t.Fatal(err)
	}
	post := func(url string) []byte {
		t.Helper()
		resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, buf.Bytes())
		}
		return buf.Bytes()
	}
	singleBytes := post(single.URL)
	coordBytes := post(coord.URL)
	if !bytes.Equal(singleBytes, coordBytes) {
		t.Errorf("distributed coordinator answers differ from single server:\n  coordinator %s\n  single      %s",
			coordBytes, singleBytes)
	}
}

// TestInProcessPartitionsParity: -partitions N serving must match the
// unsplit server byte-for-byte too.
func TestInProcessPartitionsParity(t *testing.T) {
	whole, _, _ := buildSplitFiles(t)
	single, _ := serveFile(t, whole, 0)
	parted, mode := serveFile(t, whole, 4)
	if mode != "coordinator" {
		t.Fatalf("-partitions 4 served in %q mode", mode)
	}
	body, err := json.Marshal(e2eRequests())
	if err != nil {
		t.Fatal(err)
	}
	get := func(ts *httptest.Server) []byte {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.Bytes()
	}
	if a, b := get(single), get(parted); !bytes.Equal(a, b) {
		t.Errorf("in-process partitioned server differs:\n  partitioned %s\n  single      %s", b, a)
	}
}

// TestWorkerMetaAndOwnership: /v1/meta identifies the partition, and the
// worker rejects nodes it does not own with a 400.
func TestWorkerMetaAndOwnership(t *testing.T) {
	_, parts, set := buildSplitFiles(t)
	worker, _ := serveFile(t, parts[1], 0)

	resp, err := http.Get(worker.URL + "/v1/meta")
	if err != nil {
		t.Fatal(err)
	}
	var meta adsketch.ShardMeta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if meta.Index != 1 || meta.Count != 2 || meta.TotalNodes != set.NumNodes() || meta.Lo != int32(set.NumNodes()/2) {
		t.Fatalf("worker meta: %+v", meta)
	}

	// A node owned by partition 0 must be refused here.
	body, _ := json.Marshal(adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0}}})
	r2, err := http.Post(worker.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("unowned node: status %d, want 400", r2.StatusCode)
	}

	// An owned node answers with the whole-set value.
	eng, err := adsketch.NewEngine(set)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Closeness(context.Background(), meta.Lo)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = json.Marshal(adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{meta.Lo}}})
	r3, err := http.Post(worker.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var got adsketch.Response
	if err := json.NewDecoder(r3.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if len(got.Scores) != 1 || got.Scores[0] != want[0] {
		t.Errorf("worker closeness(%d) = %+v, want %v", meta.Lo, got, want[0])
	}
}

// TestCoordinatorStatsz: the coordinator's /statsz exposes the routing
// table and the aggregated per-partition cache counters.
func TestCoordinatorStatsz(t *testing.T) {
	whole, _, set := buildSplitFiles(t)
	parted, _ := serveFile(t, whole, 4)

	// Touch every node so all caches populate.
	nodes := make([]int32, set.NumNodes())
	for i := range nodes {
		nodes[i] = int32(i)
	}
	body, _ := json.Marshal(adsketch.Request{Harmonic: &adsketch.HarmonicQuery{Nodes: nodes}})
	r, err := http.Post(parted.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()

	resp, err := http.Get(parted.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statszBody
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Mode != "coordinator" || len(st.Shards) != 4 || st.Nodes != set.NumNodes() {
		t.Fatalf("coordinator statsz: %+v", st)
	}
	covered := 0
	for _, m := range st.Shards {
		covered += int(m.Hi - m.Lo)
	}
	if covered != set.NumNodes() {
		t.Errorf("routing table covers %d of %d nodes", covered, set.NumNodes())
	}
	if st.Cache.Slots != set.NumNodes() || st.Cache.Built != set.NumNodes() {
		t.Errorf("aggregated cache stats: %+v", st.Cache)
	}
}
