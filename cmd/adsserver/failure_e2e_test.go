package main

// Failure-path tests of the distributed topology: worker error statuses
// surviving the coordinator hop, dial and probe behavior, injected
// faults, and the degraded serving modes when a worker dies mid-run.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adsketch"
)

func TestShardStatusErrMappings(t *testing.T) {
	cases := []struct {
		status int
		want   error
	}{
		{http.StatusBadRequest, adsketch.ErrBadRequest},
		{http.StatusNotFound, adsketch.ErrUnknownDataset},
		{http.StatusConflict, adsketch.ErrDatasetExists},
		{http.StatusUnprocessableEntity, adsketch.ErrUnsupportedQuery},
		{http.StatusServiceUnavailable, adsketch.ErrShardUnavailable},
	}
	for _, tc := range cases {
		payload, _ := json.Marshal(errorBody{Error: "boom"})
		err := shardStatusErr(tc.status, payload)
		if !errors.Is(err, tc.want) {
			t.Errorf("status %d: err = %v, want %v", tc.status, err, tc.want)
		}
		if !strings.Contains(err.Error(), "boom") {
			t.Errorf("status %d: worker message lost: %v", tc.status, err)
		}
		// The round trip must be lossless: the sentinel maps back to the
		// same status it came from.
		if got := statusFor(err); got != tc.status {
			t.Errorf("status %d: statusFor(shardStatusErr(...)) = %d", tc.status, got)
		}
	}
	// An unmapped status stays a plain error (and a 500 on re-serve),
	// and a non-JSON payload is carried verbatim.
	err := shardStatusErr(http.StatusTeapot, []byte("<html>pot</html>"))
	if !strings.Contains(err.Error(), "418") || !strings.Contains(err.Error(), "<html>pot</html>") {
		t.Errorf("unmapped status error: %v", err)
	}
	if got := statusFor(err); got != http.StatusInternalServerError {
		t.Errorf("statusFor(unmapped) = %d, want 500", got)
	}
}

// fakeWorkerMeta is a /v1/meta payload claiming the whole node space, so
// a single fake worker passes coordinator validation.
func fakeWorkerMeta() adsketch.ShardMeta {
	return adsketch.ShardMeta{
		Index: 0, Count: 1, Lo: 0, Hi: 400, TotalNodes: 400,
		K: 8, Kind: adsketch.KindUniform,
	}
}

// serveFakeMeta answers /v1/meta with fakeWorkerMeta, advertising the
// binary framing as every worker build does.
func serveFakeMeta(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(protoHeader, advertisedProtocols)
	writeJSON(w, http.StatusOK, fakeWorkerMeta())
}

// fakeWorker serves a real /v1/meta and delegates /v1/query to fn.
func fakeWorker(t *testing.T, fn http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/meta", serveFakeMeta)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /v1/query", fn)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestHTTPShardErrorPaths(t *testing.T) {
	fastDial := clusterDefaults()
	fastDial.dialRetries = 0

	t.Run("malformed worker JSON", func(t *testing.T) {
		ts := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(`{"scores": [1.0,`)) // cut off mid-payload
		})
		s, err := dialShard(ts.URL, fastDial)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Do(context.Background(), adsketch.Request{}); err == nil ||
			!strings.Contains(err.Error(), "decoding worker batch response") {
			t.Errorf("Do over truncated JSON: %v", err)
		}
		if _, err := s.DoBatch(context.Background(), nil); err == nil ||
			!strings.Contains(err.Error(), "decoding worker batch response") {
			t.Errorf("DoBatch over truncated JSON: %v", err)
		}
	})

	t.Run("non-JSON error payload", func(t *testing.T) {
		ts := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "proxy says no", http.StatusBadRequest)
		})
		s, err := dialShard(ts.URL, fastDial)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Do(context.Background(), adsketch.Request{})
		if !errors.Is(err, adsketch.ErrBadRequest) || !strings.Contains(err.Error(), "proxy says no") {
			t.Errorf("plain-text 400: %v", err)
		}
	})

	t.Run("body truncated at the 64MB cap", func(t *testing.T) {
		if testing.Short() {
			t.Skip("writes a 64MB response")
		}
		// A response larger than the read cap must surface as a decode
		// error, not an OOM or a silently short answer: the reader stops
		// at 64MB, leaving the JSON array unterminated.
		pad := bytes.Repeat([]byte(" "), 1<<20)
		ts := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("["))
			for i := 0; i < 65; i++ {
				w.Write(pad)
			}
			w.Write([]byte("]"))
		})
		s, err := dialShard(ts.URL, fastDial)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.DoBatch(context.Background(), nil); err == nil ||
			!strings.Contains(err.Error(), "decoding worker batch response") {
			t.Errorf("oversized body: %v", err)
		}
	})
}

// TestCrossHopStatusPreservation drives a typed worker failure through a
// real coordinator server and asserts the client sees the original
// status: worker -> httpShard sentinel -> coordinator -> statusFor.
func TestCrossHopStatusPreservation(t *testing.T) {
	for _, status := range []int{
		http.StatusBadRequest,
		http.StatusNotFound,
		http.StatusConflict,
		http.StatusUnprocessableEntity,
		http.StatusServiceUnavailable,
	} {
		worker := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, status, errorBody{Error: fmt.Sprintf("worker rejects with %d", status)})
		})
		cfg := clusterDefaults()
		cfg.dialRetries = 0
		cfg.shardRetries = 0 // one attempt: 503s would otherwise retry
		be, _, err := dialWorkers([]string{worker.URL}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		coord := serveBackend(t, be)
		body, _ := json.Marshal(adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0}}})
		resp, err := http.Post(coord.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != status {
			t.Errorf("worker %d surfaced as %d (%s)", status, resp.StatusCode, eb.Error)
		}
		if !strings.Contains(eb.Error, fmt.Sprintf("worker rejects with %d", status)) {
			t.Errorf("worker %d: message lost across the hop: %q", status, eb.Error)
		}
	}
}

func TestProberEjectsAndReadmits(t *testing.T) {
	var sick atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/meta", serveFakeMeta)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if sick.Load() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "dead"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	cfg := clusterDefaults()
	cfg.dialRetries = 0
	s, err := dialShard(ts.URL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps := newProbedShard(s)
	pr := &prober{shards: []*probedShard{ps}, client: &http.Client{Timeout: time.Second}}

	// Healthy worker: probing is a no-op.
	pr.probeAll()
	if !ps.healthy.Load() {
		t.Fatal("healthy worker ejected")
	}

	// One failed probe is a blip; the second in a row ejects.
	sick.Store(true)
	pr.probeAll()
	if !ps.healthy.Load() {
		t.Fatal("worker ejected after a single failed probe")
	}
	pr.probeAll()
	if ps.healthy.Load() {
		t.Fatal("worker not ejected after consecutive failed probes")
	}
	// An ejected worker fails fast with the unavailability sentinel
	// instead of opening a connection.
	if _, err := ps.Do(context.Background(), adsketch.Request{}); !errors.Is(err, adsketch.ErrShardUnavailable) {
		t.Errorf("ejected worker Do: %v", err)
	}
	h := pr.health()
	if len(h) != 1 || h[0].Healthy || h[0].Ejections != 1 || h[0].Fails < ejectAfter {
		t.Errorf("health report: %+v", h)
	}

	// The first successful probe readmits.
	sick.Store(false)
	pr.probeAll()
	if !ps.healthy.Load() {
		t.Fatal("recovered worker not readmitted")
	}
	if _, err := ps.Do(context.Background(), adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0}}}); errors.Is(err, adsketch.ErrShardUnavailable) {
		t.Errorf("readmitted worker still fails fast: %v", err)
	}
}

func TestFaultInjectionEndpoint(t *testing.T) {
	whole, _, _ := buildSplitFiles(t)
	cat, _, err := buildCatalog(whole, "", 0, false, nil, 0, clusterDefaults())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	srv := newServer(cat)
	srv.faultInject = true
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)

	query, _ := json.Marshal(adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0}}})
	post := func(path string, body []byte) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	// Dead: queries and health probes answer 503 until cleared.
	if st, _ := post("/debugz/fault", []byte(`{"dead":true}`)); st != http.StatusOK {
		t.Fatalf("setting fault: status %d", st)
	}
	if st, body := post("/v1/query", query); st != http.StatusServiceUnavailable {
		t.Errorf("query on dead server: status %d (%s)", st, body)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz on dead server: status %d", hz.StatusCode)
	}

	// Latency: queries still succeed, delayed by the injected amount.
	if st, _ := post("/debugz/fault", []byte(`{"latency_ms":50}`)); st != http.StatusOK {
		t.Fatalf("setting latency fault: status %d", st)
	}
	start := time.Now()
	if st, body := post("/v1/query", query); st != http.StatusOK {
		t.Errorf("query on slow server: status %d (%s)", st, body)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("injected latency not applied: query took %v", elapsed)
	}

	// The current state is readable, and {} clears every fault.
	resp, err := http.Get(ts.URL + "/debugz/fault")
	if err != nil {
		t.Fatal(err)
	}
	var fb faultBody
	json.NewDecoder(resp.Body).Decode(&fb)
	resp.Body.Close()
	if fb.Dead || fb.LatencyMS != 50 {
		t.Errorf("fault state: %+v", fb)
	}
	if st, _ := post("/debugz/fault", []byte(`{}`)); st != http.StatusOK {
		t.Fatal("clearing faults failed")
	}
	if st, _ := post("/v1/query", query); st != http.StatusOK {
		t.Errorf("query after clearing faults: status %d", st)
	}

	// Without -fault-inject the endpoint does not exist.
	plain := httptest.NewServer(newServer(cat).mux())
	t.Cleanup(plain.Close)
	resp2, err := http.Post(plain.URL+"/debugz/fault", "application/json", bytes.NewReader([]byte(`{"dead":true}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("fault endpoint exposed without -fault-inject: status %d", resp2.StatusCode)
	}
}

// splitFilesN saves an n-way split of a fresh 400-node set.
func splitFilesN(t *testing.T, n int) []string {
	t.Helper()
	g := adsketch.PreferentialAttachment(400, 3, 7)
	set, err := adsketch.Build(g, adsketch.WithK(8), adsketch.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	split, err := adsketch.SplitSketchSet(set, n)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := make([]string, len(split))
	for i, p := range split {
		name := filepath.Join(dir, fmt.Sprintf("part%d.ads", i))
		pf, err := os.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.WriteTo(pf); err != nil {
			t.Fatal(err)
		}
		pf.Close()
		paths[i] = name
	}
	return paths
}

// TestDeadWorkerDegradedServing is the acceptance scenario: a 3-worker
// topology loses one worker mid-run.  Under the partial policy the
// coordinator keeps answering (degraded, flagged); under the default
// fail policy it returns a typed error naming the dead shard.
func TestDeadWorkerDegradedServing(t *testing.T) {
	parts := splitFilesN(t, 3)
	var workers []*httptest.Server
	var urls []string
	for _, p := range parts {
		w, mode := serveFile(t, p, 0)
		if mode != "shard" {
			t.Fatalf("partition served in %q mode", mode)
		}
		workers = append(workers, w)
		urls = append(urls, w.URL)
	}
	cfg := clusterDefaults()
	cfg.shardTimeout = 5 * time.Second
	cfg.shardRetries = 1
	cfg.retryBackoff = time.Millisecond
	be, _, err := dialWorkers(urls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord := serveBackend(t, be)

	post := func(req adsketch.Request) (int, adsketch.Response, errorBody) {
		t.Helper()
		body, _ := json.Marshal(req)
		hr, err := http.Post(coord.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(hr.Body)
		var resp adsketch.Response
		var eb errorBody
		if hr.StatusCode == http.StatusOK {
			if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
		} else {
			json.Unmarshal(buf.Bytes(), &eb)
		}
		return hr.StatusCode, resp, eb
	}

	topk := adsketch.Request{TopK: &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 10}}
	st, healthy, _ := post(topk)
	if st != http.StatusOK || healthy.Partial {
		t.Fatalf("healthy topology: status %d, partial %v", st, healthy.Partial)
	}

	// Worker 1 dies mid-run.  Its owned range comes from its own meta,
	// not from assumptions about the split arithmetic.
	deadMeta, err := dialShard(urls[1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := deadMeta.meta.Lo, deadMeta.meta.Hi
	workers[1].Close()

	// Default fail policy: a typed error naming the dead shard.
	st, _, eb := post(topk)
	if st == http.StatusOK {
		t.Fatal("fail policy answered OK with a dead worker")
	}
	if !strings.Contains(eb.Error, "shard 1") {
		t.Errorf("fail-policy error does not name the dead shard: %q", eb.Error)
	}

	// Partial policy: every query answers 200, degraded and flagged.
	partial := topk
	partial.Policy = adsketch.PolicyPartial
	partial.Explain = true
	st, resp, eb := post(partial)
	if st != http.StatusOK {
		t.Fatalf("partial-policy topk: status %d (%s)", st, eb.Error)
	}
	if !resp.Partial || len(resp.Ranking) != 10 {
		t.Errorf("degraded topk: partial=%v, %d members", resp.Partial, len(resp.Ranking))
	}
	if resp.Merge == nil || len(resp.Merge.Failed) != 1 || resp.Merge.Failed[0] != 1 {
		t.Errorf("degraded topk merge meta: %+v", resp.Merge)
	}
	for _, r := range resp.Ranking {
		if r.Node >= lo && r.Node < hi {
			t.Errorf("ranking includes node %d owned by the dead worker", r.Node)
		}
	}

	mid := (lo + hi) / 2 // a node the dead worker owned
	st, resp, eb = post(adsketch.Request{
		Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0, mid, 399}},
		Policy:    adsketch.PolicyPartial,
	})
	if st != http.StatusOK {
		t.Fatalf("partial-policy closeness: status %d (%s)", st, eb.Error)
	}
	if !resp.Partial || len(resp.Missing) != 1 || resp.Missing[0] != mid {
		t.Errorf("degraded closeness: partial=%v, missing=%v", resp.Partial, resp.Missing)
	}
	if resp.Scores[0] == 0 || resp.Scores[1] != 0 || resp.Scores[2] == 0 {
		t.Errorf("degraded scores: %v", resp.Scores)
	}

	// The coordinator's own error accounting shows up on /statsz.
	sr, err := http.Get(coord.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var stats statszBody
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if len(stats.Scatter) != 3 {
		t.Fatalf("scatter stats for %d partitions, want 3", len(stats.Scatter))
	}
	if s := stats.Scatter[1]; s.Errors == 0 || s.Failures == 0 || s.Retries == 0 {
		t.Errorf("dead shard scatter stats: %+v", s)
	}
	if s := stats.Scatter[0]; s.Failures != 0 {
		t.Errorf("healthy shard reports failures: %+v", s)
	}
}
