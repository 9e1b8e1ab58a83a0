package distbuild

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"adsketch/internal/wire"
)

// HTTP build-worker endpoints, served by `adsserver -buildworker` and
// driven by HTTPExchanger.  Init carries the worker's spec as JSON;
// candidate exchange rides the binary frontier frames of package wire;
// Freeze returns the raw v3 partition file, the worker's Examined count
// in examinedHeader.
const (
	PathInit   = "/v1/build/init"
	PathStep   = "/v1/build/step"
	PathFreeze = "/v1/build/freeze"

	examinedHeader = "Ads-Examined"
)

// HTTPExchanger drives one remote build worker over HTTP.  The remote
// worker reads the spec's edge-list path from its own filesystem (the
// shared-storage model: every worker can open Spec.Path); only
// candidates and the frozen partition cross the wire.
type HTTPExchanger struct {
	// Base is the worker's base URL, e.g. "http://host:8080".
	Base string
	// Spec is this worker's slice of the build.
	Spec WorkerSpec
	// Client is the HTTP client; nil means http.DefaultClient.
	Client *http.Client

	exam int64 // the worker's Examined count as its freeze reported it, or -1
}

// NewHTTPExchangers pairs spec's P workers with P worker base URLs.
func NewHTTPExchangers(spec Spec, urls []string, client *http.Client) ([]Exchanger, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(urls) != spec.Parts {
		return nil, fmt.Errorf("distbuild: %d worker URLs for %d partitions", len(urls), spec.Parts)
	}
	exs := make([]Exchanger, spec.Parts)
	for i, u := range urls {
		ws, err := spec.Worker(i)
		if err != nil {
			return nil, err
		}
		exs[i] = &HTTPExchanger{Base: strings.TrimSuffix(u, "/"), Spec: ws, Client: client}
	}
	return exs, nil
}

func (h *HTTPExchanger) client() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	return http.DefaultClient
}

// post sends one request and returns the response body and header,
// mapping non-200 statuses to errors carrying the worker's message.
func (h *HTTPExchanger) post(ctx context.Context, path, contentType string, body []byte) ([]byte, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.Base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := h.client().Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("distbuild: reading %s response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(data))
		if msg == "" {
			msg = resp.Status
		}
		return nil, nil, fmt.Errorf("distbuild: worker %d %s: %s", h.Spec.Index, path, msg)
	}
	return data, resp.Header, nil
}

// Init implements Exchanger: it configures the remote worker with the
// spec and decodes its round-0 outboxes.
func (h *HTTPExchanger) Init(ctx context.Context) ([][]Candidate, error) {
	body, err := json.Marshal(h.Spec)
	if err != nil {
		return nil, err
	}
	data, _, err := h.post(ctx, PathInit, "application/json", body)
	if err != nil {
		return nil, err
	}
	return h.decodeOutboxes(data, 0)
}

// Step implements Exchanger: the inbox crosses as one single-group
// frontier frame, the outboxes come back as a P-group frame.
func (h *HTTPExchanger) Step(ctx context.Context, round int, inbox []Candidate) ([][]Candidate, error) {
	buf := wire.Get()
	defer buf.Free()
	frame := &wire.FrontierFrame{Kind: h.Spec.Kind, Round: round, Groups: [][]Candidate{inbox}}
	if err := wire.EncodeFrontierFrame(buf, frame); err != nil {
		return nil, err
	}
	data, _, err := h.post(ctx, PathStep, wire.ContentType, buf.B)
	if err != nil {
		return nil, err
	}
	return h.decodeOutboxes(data, round)
}

// Freeze implements Exchanger: the response body is the partition file.
func (h *HTTPExchanger) Freeze(ctx context.Context) ([]byte, error) {
	data, header, err := h.post(ctx, PathFreeze, "application/octet-stream", nil)
	if err != nil {
		return nil, err
	}
	if h.exam, err = strconv.ParseInt(header.Get(examinedHeader), 10, 64); err != nil {
		h.exam = -1 // a worker that does not count
	}
	return data, nil
}

// Examined implements ExaminedCounter: the freeze reply's count, or -1.
func (h *HTTPExchanger) Examined() int64 { return h.exam }

func (h *HTTPExchanger) decodeOutboxes(data []byte, round int) ([][]Candidate, error) {
	f, err := wire.DecodeFrontierFrame(data)
	if err != nil {
		return nil, fmt.Errorf("distbuild: worker %d: %w", h.Spec.Index, err)
	}
	if f.Kind != h.Spec.Kind {
		return nil, fmt.Errorf("distbuild: worker %d answered kind %d for a kind-%d build", h.Spec.Index, f.Kind, h.Spec.Kind)
	}
	if f.Round != round {
		return nil, fmt.Errorf("distbuild: worker %d answered round %d for round %d", h.Spec.Index, f.Round, round)
	}
	return f.Groups, nil
}
