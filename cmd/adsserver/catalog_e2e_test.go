package main

// End-to-end tests of the dataset catalog: the admin endpoints, dataset
// routing over HTTP, and the acceptance scenario — continuous query load
// against a live server while a rebuilt v3 sketch file is hot-swapped
// in, with zero failed requests and an atomic flip to the new answers.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adsketch"
)

// buildV3File builds a 400-node set with the given seed and writes it as
// a columnar v3 file, returning the path and an Engine over the same
// sketches for expected answers.
func buildV3File(t *testing.T, dir, name string, seed uint64) (string, *adsketch.Engine) {
	t.Helper()
	g := adsketch.PreferentialAttachment(400, 3, 7)
	set, err := adsketch.Build(g, adsketch.WithK(8), adsketch.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adsketch.WriteSketchSetV3(f, set); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	eng, err := adsketch.NewEngine(set)
	if err != nil {
		t.Fatal(err)
	}
	return path, eng
}

// catalogServer serves a fresh catalog with the given default source.
func catalogServer(t *testing.T, src adsketch.Source) (*httptest.Server, *adsketch.Catalog) {
	t.Helper()
	cat, err := adsketch.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Attach(adsketch.DefaultDataset, src); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(cat).mux())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { cat.Close() })
	return ts, cat
}

// getDatasets fetches and decodes GET /v1/datasets.
func getDatasets(t *testing.T, baseURL string) adsketch.CatalogStats {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st adsketch.CatalogStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/datasets: status %d", resp.StatusCode)
	}
	return st
}

func datasetNamed(t *testing.T, st adsketch.CatalogStats, name string) adsketch.DatasetStats {
	t.Helper()
	for _, ds := range st.Datasets {
		if ds.Name == name {
			return ds
		}
	}
	t.Fatalf("dataset %q not listed in %+v", name, st)
	return adsketch.DatasetStats{}
}

// TestHotSwapZeroDowntime is the acceptance scenario: hammer a server
// with queries while POST /v1/datasets/default swaps a rebuilt v3 file
// in (mmap'd).  Requirements: zero failed requests, every answer matches
// exactly the old or the new version (never anything else), answers flip
// atomically at the swap point, and the old version fully drains (its
// mmap is released only after the last reader) once load stops.
func TestHotSwapZeroDowntime(t *testing.T) {
	dir := t.TempDir()
	pathA, engA := buildV3File(t, dir, "a.v3.ads", 42)
	pathB, engB := buildV3File(t, dir, "b.v3.ads", 1042)
	ts, _ := catalogServer(t, adsketch.MmapSource(pathA))

	ctx := context.Background()
	nodes := []int32{0, 17, 399}
	wantA, err := engA.Closeness(ctx, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := engB.Closeness(ctx, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	if wantA[0] == wantB[0] {
		t.Fatal("test sets indistinguishable; pick different seeds")
	}
	matches := func(scores, want []float64) bool {
		if len(scores) != len(want) {
			return false
		}
		for i := range want {
			if scores[i] != want[i] {
				return false
			}
		}
		return true
	}
	reqBody, err := json.Marshal(adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: nodes}})
	if err != nil {
		t.Fatal(err)
	}
	query := func() (adsketch.Response, int, error) {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			return adsketch.Response{}, 0, err
		}
		defer resp.Body.Close()
		var out adsketch.Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return adsketch.Response{}, resp.StatusCode, err
		}
		return out, resp.StatusCode, nil
	}

	// Before the swap: answers are version A's.
	pre, status, err := query()
	if err != nil || status != http.StatusOK || !matches(pre.Scores, wantA) {
		t.Fatalf("pre-swap query: status %d, err %v, scores %v (want %v)", status, err, pre.Scores, wantA)
	}

	// Continuous load: every response must be a 200 matching exactly one
	// version's answers.
	var failed, oldAnswers, newAnswers, other atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, status, err := query()
				switch {
				case err != nil || status != http.StatusOK || resp.Error != "":
					failed.Add(1)
				case matches(resp.Scores, wantA):
					oldAnswers.Add(1)
				case matches(resp.Scores, wantB):
					newAnswers.Add(1)
				default:
					other.Add(1)
				}
			}
		}()
	}

	// Give the load a moment to be in flight, then swap under it.
	time.Sleep(20 * time.Millisecond)
	swapPayload, _ := json.Marshal(swapBody{Path: pathB, Mmap: true})
	resp, err := http.Post(ts.URL+"/v1/datasets/"+adsketch.DefaultDataset, "application/json", bytes.NewReader(swapPayload))
	if err != nil {
		t.Fatal(err)
	}
	var swapped swapResult
	if err := json.NewDecoder(resp.Body).Decode(&swapped); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || swapped.Version != 2 {
		t.Fatalf("swap: status %d, result %+v", resp.StatusCode, swapped)
	}

	// The flip is atomic: any query issued after the swap returned must
	// answer from version B.
	post, status, err := query()
	if err != nil || status != http.StatusOK || !matches(post.Scores, wantB) {
		t.Fatalf("post-swap query: status %d, err %v, scores %v (want %v)", status, err, post.Scores, wantB)
	}

	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	if failed.Load() != 0 {
		t.Errorf("%d requests failed during the hot swap, want 0", failed.Load())
	}
	if other.Load() != 0 {
		t.Errorf("%d answers matched neither version", other.Load())
	}
	if newAnswers.Load() == 0 {
		t.Error("no post-swap answers observed")
	}
	t.Logf("hot swap under load: %d old-version answers, %d new-version answers, 0 failures",
		oldAnswers.Load(), newAnswers.Load())

	// With load stopped, the old version must fully drain: its last
	// reader released, its mmap unmapped (the release hook ran — the
	// registry reports no draining versions and only the live pin-free
	// version 2 remains).
	deadline := time.Now().Add(5 * time.Second)
	for {
		ds := datasetNamed(t, getDatasets(t, ts.URL), adsketch.DefaultDataset)
		if ds.Draining == 0 && ds.Refs == 0 {
			if ds.Version != 2 || !ds.Mmap || !ds.Resident {
				t.Fatalf("drained dataset state: %+v", ds)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("old version never drained: %+v", ds)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDatasetAdminEndpoints: list, attach, route by name, swap an
// unknown body, detach, and the error statuses.
func TestDatasetAdminEndpoints(t *testing.T) {
	dir := t.TempDir()
	pathA, engA := buildV3File(t, dir, "a.v3.ads", 42)
	pathB, engB := buildV3File(t, dir, "b.v3.ads", 1042)
	ts, _ := catalogServer(t, adsketch.FileSource(pathA))

	// The default dataset is listed with its serving identity.
	st := getDatasets(t, ts.URL)
	if st.Default != adsketch.DefaultDataset || len(st.Datasets) != 1 {
		t.Fatalf("initial catalog: %+v", st)
	}
	ds := datasetNamed(t, st, adsketch.DefaultDataset)
	if ds.Version != 1 || !ds.Resident || ds.Meta == nil || ds.Meta.TotalNodes != 400 ||
		ds.Path != pathA || ds.FileVersion != adsketch.SketchFormatVersion {
		t.Fatalf("default dataset stats: %+v", ds)
	}

	// Attach a second dataset through the admin API and query it by name.
	payload, _ := json.Marshal(swapBody{Path: pathB})
	resp, err := http.Post(ts.URL+"/v1/datasets/nightly", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("attach nightly: status %d", resp.StatusCode)
	}
	ctx := context.Background()
	wantA, _ := engA.Closeness(ctx, 5)
	wantB, _ := engB.Closeness(ctx, 5)
	queryDataset := func(name string) (adsketch.Response, int) {
		t.Helper()
		body, _ := json.Marshal(adsketch.Request{Dataset: name, Closeness: &adsketch.ClosenessQuery{Nodes: []int32{5}}})
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out adsketch.Response
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatal(err)
		}
		return out, resp.StatusCode
	}
	if got, status := queryDataset(""); status != http.StatusOK || got.Scores[0] != wantA[0] {
		t.Errorf("default dataset: status %d, score %v (want %v)", status, got.Scores, wantA)
	}
	if got, status := queryDataset("nightly"); status != http.StatusOK || got.Scores[0] != wantB[0] {
		t.Errorf("nightly dataset: status %d, score %v (want %v)", status, got.Scores, wantB)
	}

	// /statsz reports both datasets and the default's single-set shape.
	sresp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var sb statszBody
	if err := json.NewDecoder(sresp.Body).Decode(&sb); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sb.Mode != "single" || sb.Default != adsketch.DefaultDataset || len(sb.Datasets) != 2 || sb.Nodes != 400 {
		t.Errorf("statsz: %+v", sb)
	}

	// Unknown dataset in a query -> 404.
	if _, status := queryDataset("ghost"); status != http.StatusNotFound {
		t.Errorf("unknown dataset query: status %d, want 404", status)
	}
	// Swap with a bad path -> 400, and the dataset keeps serving.
	bad, _ := json.Marshal(swapBody{Path: filepath.Join(dir, "missing.ads")})
	r2, err := http.Post(ts.URL+"/v1/datasets/nightly", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Errorf("bad-path swap: status %d, want 400", r2.StatusCode)
	}
	if got, status := queryDataset("nightly"); status != http.StatusOK || got.Scores[0] != wantB[0] {
		t.Errorf("nightly after failed swap: status %d, score %v", status, got.Scores)
	}
	// Missing body path -> 400.
	r3, err := http.Post(ts.URL+"/v1/datasets/nightly", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusBadRequest {
		t.Errorf("empty-body swap: status %d, want 400", r3.StatusCode)
	}

	// Detach and verify 404s afterwards.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/nightly", nil)
	r4, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusOK {
		t.Errorf("detach: status %d", r4.StatusCode)
	}
	if _, status := queryDataset("nightly"); status != http.StatusNotFound {
		t.Errorf("query after detach: status %d, want 404", status)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/nightly", nil)
	r5, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r5.Body.Close()
	if r5.StatusCode != http.StatusNotFound {
		t.Errorf("double detach: status %d, want 404", r5.StatusCode)
	}
}

// TestServerBatchPinsOneVersion: a batch posted over HTTP answers every
// request from one dataset version even when a swap lands mid-batch
// stream — and mixed-dataset batches route each request independently.
func TestServerBatchPinsOneVersion(t *testing.T) {
	dir := t.TempDir()
	pathA, engA := buildV3File(t, dir, "a.v3.ads", 42)
	pathB, engB := buildV3File(t, dir, "b.v3.ads", 1042)
	ts, _ := catalogServer(t, adsketch.FileSource(pathA))
	payload, _ := json.Marshal(swapBody{Path: pathB})
	ctx := context.Background()
	wantA, _ := engA.Closeness(ctx, 9)
	wantB, _ := engB.Closeness(ctx, 9)

	batch := make([]adsketch.Request, 16)
	for i := range batch {
		batch[i] = adsketch.Request{ID: fmt.Sprint(i), Closeness: &adsketch.ClosenessQuery{Nodes: []int32{9}}}
	}
	body, _ := json.Marshal(batch)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("batch post: %v", err)
				return
			}
			var out []adsketch.Response
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil || len(out) != len(batch) {
				t.Errorf("batch decode: %v (%d responses)", err, len(out))
				return
			}
			for i, r := range out {
				if r.Error != "" {
					t.Errorf("batch item %d failed: %s", i, r.Error)
					return
				}
				if r.Scores[0] != wantA[0] && r.Scores[0] != wantB[0] {
					t.Errorf("batch item %d matches neither version", i)
					return
				}
				if r.Scores[0] != out[0].Scores[0] {
					t.Errorf("mixed versions within one batch: item %d", i)
					return
				}
			}
		}
	}()
	for i := 0; i < 10; i++ {
		resp, err := http.Post(ts.URL+"/v1/datasets/"+adsketch.DefaultDataset, "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("swap %d: status %d", i, resp.StatusCode)
		}
	}
	close(stop)
	wg.Wait()
}
