package main

// End-to-end tests of the binary wire protocol over real HTTP: a
// binary client must get byte-identical answers to a JSON client, and
// the coordinator speaks binary frames to its workers — a worker that
// does not advertise them is refused at dial.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"adsketch"
	"adsketch/internal/wire"
)

// postRaw sends one /v1/query body and returns status, content type and
// payload.
func postRaw(t *testing.T, baseURL, contentType string, body []byte) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/query", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), payload
}

// TestBinaryEndpointParity: the same corpus posted as JSON and as a
// binary frame must decode to identical responses, single and batch,
// and the server must advertise the protocol on /v1/meta.
func TestBinaryEndpointParity(t *testing.T) {
	whole, _, _ := buildSplitFiles(t)
	ts, _ := serveFile(t, whole, 0)

	meta, err := http.Get(ts.URL + "/v1/meta")
	if err != nil {
		t.Fatal(err)
	}
	meta.Body.Close()
	if adv := meta.Header.Get(protoHeader); !strings.Contains(adv, wire.ContentType) {
		t.Fatalf("/v1/meta %s = %q, want it to advertise %q", protoHeader, adv, wire.ContentType)
	}

	reqs := e2eRequests()

	// Batch parity.
	jsonBody, err := json.Marshal(reqs)
	if err != nil {
		t.Fatal(err)
	}
	status, ctype, jsonPayload := postRaw(t, ts.URL, "application/json", jsonBody)
	if status != http.StatusOK {
		t.Fatalf("JSON batch: status %d: %s", status, jsonPayload)
	}
	var want []adsketch.Response
	if err := json.Unmarshal(jsonPayload, &want); err != nil {
		t.Fatal(err)
	}

	buf := wire.Get()
	defer buf.Free()
	wire.EncodeRequests(buf, reqs)
	status, ctype, binPayload := postRaw(t, ts.URL, wire.ContentType, buf.B)
	if status != http.StatusOK {
		t.Fatalf("binary batch: status %d: %s", status, binPayload)
	}
	if ctype != wire.ContentType {
		t.Fatalf("binary batch response Content-Type = %q, want %q", ctype, wire.ContentType)
	}
	got, batch, err := wire.DecodeResponses(binPayload)
	if err != nil {
		t.Fatalf("decoding binary batch response: %v", err)
	}
	if !batch {
		t.Fatal("batch request answered with a single-response frame")
	}
	if len(got) != len(want) {
		t.Fatalf("%d binary responses, want %d", len(got), len(want))
	}
	for i := range want {
		wantJSON, _ := json.Marshal(want[i])
		gotJSON, _ := json.Marshal(got[i])
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("request %s: binary differs from JSON:\n  binary %s\n  json   %s", reqs[i].ID, gotJSON, wantJSON)
		}
	}

	// Single-request parity.
	for _, req := range reqs {
		one, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		status, _, jsonOne := postRaw(t, ts.URL, "application/json", one)
		if status != http.StatusOK {
			t.Fatalf("JSON %s: status %d: %s", req.ID, status, jsonOne)
		}
		var wantOne adsketch.Response
		if err := json.Unmarshal(jsonOne, &wantOne); err != nil {
			t.Fatal(err)
		}
		wire.EncodeRequest(buf, &req)
		status, ctype, binOne := postRaw(t, ts.URL, wire.ContentType, buf.B)
		if status != http.StatusOK {
			t.Fatalf("binary %s: status %d: %s", req.ID, status, binOne)
		}
		if ctype != wire.ContentType {
			t.Fatalf("binary %s: response Content-Type = %q", req.ID, ctype)
		}
		gotOne, err := wire.DecodeResponse(binOne)
		if err != nil {
			t.Fatalf("decoding binary %s: %v", req.ID, err)
		}
		wantJSON, _ := json.Marshal(wantOne)
		gotJSON, _ := json.Marshal(gotOne)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("request %s: binary differs from JSON:\n  binary %s\n  json   %s", req.ID, gotJSON, wantJSON)
		}
	}
}

// TestBinaryEndpointErrorsStayJSON: a malformed binary frame is a JSON
// errorBody with an HTTP status, never a binary frame — so any client
// can always parse a failure.
func TestBinaryEndpointErrorsStayJSON(t *testing.T) {
	whole, _, _ := buildSplitFiles(t)
	ts, _ := serveFile(t, whole, 0)

	status, ctype, payload := postRaw(t, ts.URL, wire.ContentType, []byte("not a frame"))
	if status != http.StatusBadRequest {
		t.Fatalf("garbage frame: status %d, want 400", status)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("garbage frame error Content-Type = %q, want JSON", ctype)
	}
	var eb errorBody
	if err := json.Unmarshal(payload, &eb); err != nil || eb.Error == "" {
		t.Fatalf("garbage frame error body %q not a JSON errorBody (%v)", payload, err)
	}

	// A well-formed frame carrying an invalid request errors with the
	// same status and message as its JSON twin.
	bad := adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{-1}}}
	buf := wire.Get()
	defer buf.Free()
	wire.EncodeRequest(buf, &bad)
	binStatus, binCtype, binPayload := postRaw(t, ts.URL, wire.ContentType, buf.B)
	jsonBody, _ := json.Marshal(bad)
	jsonStatus, _, jsonPayload := postRaw(t, ts.URL, "application/json", jsonBody)
	if binStatus != jsonStatus {
		t.Fatalf("invalid request: binary status %d, json status %d", binStatus, jsonStatus)
	}
	if !strings.HasPrefix(binCtype, "application/json") {
		t.Fatalf("invalid request error Content-Type = %q, want JSON", binCtype)
	}
	if !bytes.Equal(binPayload, jsonPayload) {
		t.Errorf("invalid request error bodies differ:\n  binary %s\n  json   %s", binPayload, jsonPayload)
	}
}

// TestShardProtocolNegotiation: dialing a worker that advertises the
// binary framing succeeds, and the binary hop answers exactly what the
// worker's public JSON edge answers, batched and single.
func TestShardProtocolNegotiation(t *testing.T) {
	_, parts, _ := buildSplitFiles(t)
	worker, _ := serveFile(t, parts[0], 0)
	s, err := dialShard(worker.URL, clusterDefaults())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := adsketch.Request{ID: "own", Closeness: &adsketch.ClosenessQuery{Nodes: []int32{s.meta.Lo}}}
	batch := []adsketch.Request{req, {ID: "sk", Sketch: &adsketch.SketchQuery{Node: s.meta.Lo}}}
	got, err := s.DoBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	status, _, want := postRaw(t, worker.URL, "application/json", body)
	if status != http.StatusOK {
		t.Fatalf("JSON batch: status %d: %s", status, want)
	}
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(gotJSON, bytes.TrimSpace(want)) {
		t.Errorf("binary shard batch differs from the JSON edge:\n  binary %s\n  json   %s", gotJSON, want)
	}
	one, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	oneJSON, _ := json.Marshal(one)
	firstJSON, _ := json.Marshal(got[0])
	if !bytes.Equal(oneJSON, firstJSON) {
		t.Errorf("single shard call differs from its batch slot:\n  single %s\n  batch  %s", oneJSON, firstJSON)
	}
}

// TestDialRefusesJSONOnlyWorker: a worker whose /v1/meta does not
// advertise the binary framing — a build that predates it, or a proxy
// that strips the header — is refused at dial with an error naming it,
// without a retry and without a single query reaching it, so a
// coordinator over it never starts.
func TestDialRefusesJSONOnlyWorker(t *testing.T) {
	var metas, queries atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/meta", func(w http.ResponseWriter, r *http.Request) {
		metas.Add(1)
		writeJSON(w, http.StatusOK, fakeWorkerMeta())
	})
	mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
		queries.Add(1)
	})
	legacy := httptest.NewServer(mux)
	t.Cleanup(legacy.Close)

	_, err := dialShard(legacy.URL, clusterDefaults())
	if err == nil || !strings.Contains(err.Error(), legacy.URL) || !strings.Contains(err.Error(), wire.ContentType) {
		t.Fatalf("dialing a JSON-only worker: err = %v, want a refusal naming %s and %s", err, legacy.URL, wire.ContentType)
	}
	if n := metas.Load(); n != 1 {
		t.Errorf("refused worker's /v1/meta fetched %d times, want 1 (a refusal is not retried)", n)
	}
	if _, _, err := dialWorkers([]string{legacy.URL}, clusterDefaults()); err == nil {
		t.Error("coordinator started over a JSON-only worker")
	}
	if n := queries.Load(); n != 0 {
		t.Errorf("refused worker received %d queries", n)
	}
}

// TestDialRefusesOtherFlavorWorker: a worker of an earlier release whose
// /v1/meta names the k-mins or k-partition flavor is refused at dial,
// naming the worker and the flavor, and is neither retried nor queried; a
// worker of one naming bottom-k is dialed as before.
func TestDialRefusesOtherFlavorWorker(t *testing.T) {
	for _, flavor := range []string{"kmins", "kpartition", "bottomk"} {
		var metas, queries atomic.Int64
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/meta", func(w http.ResponseWriter, r *http.Request) {
			metas.Add(1)
			meta := fakeWorkerMeta()
			w.Header().Set(protoHeader, wire.ContentType)
			writeJSON(w, http.StatusOK, map[string]any{
				"index": meta.Index, "count": meta.Count, "lo": meta.Lo, "hi": meta.Hi,
				"total_nodes": meta.TotalNodes, "k": meta.K, "kind": meta.Kind, "flavor": flavor,
			})
		})
		mux.HandleFunc("POST /v1/query", func(w http.ResponseWriter, r *http.Request) {
			queries.Add(1)
		})
		old := httptest.NewServer(mux)
		s, err := dialShard(old.URL, clusterDefaults())
		old.Close()
		if flavor == "bottomk" {
			if err != nil {
				t.Errorf("dialing a bottom-k worker of an earlier release: %v", err)
			} else if s.Meta() != fakeWorkerMeta() {
				t.Errorf("dialing a bottom-k worker of an earlier release: meta %+v", s.Meta())
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), old.URL) || !strings.Contains(err.Error(), `"`+flavor+`"`) {
			t.Errorf("dialing a %s worker: err = %v, want a refusal naming %s and the flavor", flavor, err, old.URL)
		}
		if n := metas.Load(); n != 1 {
			t.Errorf("%s worker's /v1/meta fetched %d times, want 1 (a refusal is not retried)", flavor, n)
		}
		if n := queries.Load(); n != 0 {
			t.Errorf("refused %s worker received %d queries", flavor, n)
		}
	}
}
