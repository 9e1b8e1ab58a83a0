package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"adsketch"
	"adsketch/internal/cluster"
	"adsketch/internal/wire"
)

// maxShardRespBytes caps how much of a worker response the coordinator
// will read; a larger payload is cut off and surfaces as a decode error.
const maxShardRespBytes = 64 << 20

// httpShard is an adsketch.ShardBackend over a remote adsserver worker:
// the coordinator half of the distributed scatter-gather topology.  The
// worker's identity (node range, partition position, sketch parameters)
// is fetched once from /v1/meta at dial time; queries go through
// /v1/query exactly as any other client's would, so a worker needs no
// coordinator-specific surface.
//
// The hop speaks binary frames only: dialing refuses a worker whose
// /v1/meta does not advertise the binary framing (Ads-Protocols), and a
// worker of an earlier release whose /v1/meta names a flavor other than
// bottom-k, the only sketches a coordinator merges.
type httpShard struct {
	base   string
	meta   adsketch.ShardMeta
	client *http.Client
}

var _ adsketch.ShardBackend = (*httpShard)(nil)

// shardTransport is shared by every worker client: one keep-alive
// connection pool sized for scatter fan-out concurrency instead of
// net/http's 2-idle-conns-per-host default, which would re-handshake on
// nearly every scattered call.
var shardTransport = func() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 64
	t.IdleConnTimeout = 90 * time.Second
	t.DisableKeepAlives = false
	return t
}()

// clusterConfig carries the coordinator-mode tuning knobs: how to dial
// workers, how the coordinator treats a slow or failing shard, and
// whether to health-probe the topology.
type clusterConfig struct {
	dialTimeout   time.Duration // per-attempt budget for a worker's /v1/meta
	dialRetries   int           // extra dial attempts per worker
	dialBackoff   time.Duration // base of the dial retries' cluster.Backoff
	shardTimeout  time.Duration // per-attempt shard call deadline (0 = none)
	shardRetries  int           // extra rounds through a partition's replica chain
	retryBackoff  time.Duration // base of the shard retries' cluster.Backoff
	hedgeDelay    time.Duration // start the next attempt beside one this slow (0 = off)
	probeInterval time.Duration // /healthz polling interval (0 = no probing)
}

// clusterDefaults is the production posture: bounded dials, a generous
// per-shard deadline with one retry, hedging off (it needs replicas and
// an explicit latency target), probing off (opt in via -probe-interval).
func clusterDefaults() clusterConfig {
	return clusterConfig{
		dialTimeout:  5 * time.Second,
		dialRetries:  2,
		dialBackoff:  250 * time.Millisecond,
		shardTimeout: 15 * time.Second,
		shardRetries: 1,
		retryBackoff: 50 * time.Millisecond,
	}
}

func (c clusterConfig) coordinatorOptions() []adsketch.CoordinatorOption {
	return []adsketch.CoordinatorOption{
		adsketch.WithShardTimeout(c.shardTimeout),
		adsketch.WithShardRetries(c.shardRetries),
		adsketch.WithRetryBackoff(c.retryBackoff),
		adsketch.WithHedgeDelay(c.hedgeDelay),
	}
}

// dialShard connects to a worker and reads its serving identity, with a
// per-attempt timeout and bounded retries — a worker that is still
// binding its listener gets a grace period, while a wrong URL fails in
// seconds instead of wedging startup on a default TCP timeout.  A worker
// that answers without advertising the binary framing is refused at
// once: the coordinator speaks nothing else to its workers.  So is one
// that serves k-mins or k-partition sketches.
func dialShard(base string, cfg clusterConfig) (*httpShard, error) {
	s := &httpShard{
		base:   strings.TrimSuffix(base, "/"),
		client: &http.Client{Timeout: 60 * time.Second, Transport: shardTransport},
	}
	for attempt := 0; ; attempt++ {
		protocols, flavor, err := s.fetchMeta(cfg.dialTimeout)
		if err == nil {
			if flavor != "" && flavor != "bottomk" {
				return nil, fmt.Errorf("dialing shard %s: /v1/meta names flavor %q, sketches no coordinator merges: only bottom-k sketches are served",
					s.base, flavor)
			}
			if !strings.Contains(protocols, wire.ContentType) {
				return nil, fmt.Errorf("dialing shard %s: /v1/meta advertises %s %q, want %s (the coordinator speaks only binary frames to workers)",
					s.base, protoHeader, protocols, wire.ContentType)
			}
			return s, nil
		}
		if attempt >= cfg.dialRetries {
			return nil, err
		}
		time.Sleep(cluster.Backoff(cfg.dialBackoff, attempt+1))
	}
}

// fetchMeta performs one /v1/meta attempt under its own deadline and
// returns the worker's protocol advertisement and the flavor its meta
// names: none, or — from a worker of an earlier release — bottomk, kmins
// or kpartition.
func (s *httpShard) fetchMeta(timeout time.Duration) (protocols, flavor string, err error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/meta", nil)
	if err != nil {
		return "", "", fmt.Errorf("dialing shard %s: %w", s.base, err)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return "", "", fmt.Errorf("dialing shard %s: %w", s.base, err)
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return "", "", fmt.Errorf("dialing shard %s: %w", s.base, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("dialing shard %s: %s: %s", s.base, resp.Status, strings.TrimSpace(string(payload)))
	}
	var meta struct {
		adsketch.ShardMeta
		Flavor string `json:"flavor"`
	}
	if err := json.Unmarshal(payload, &meta); err != nil {
		return "", "", fmt.Errorf("dialing shard %s: decoding /v1/meta: %v", s.base, err)
	}
	s.meta = meta.ShardMeta
	return resp.Header.Get(protoHeader), meta.Flavor, nil
}

func (s *httpShard) Meta() adsketch.ShardMeta { return s.meta }

// post sends one binary /v1/query frame and fills out with the response
// payload.  out is a pooled buffer the caller owns; its capacity is
// reused across calls instead of io.ReadAll's fresh allocation, and the
// read is capped at maxShardRespBytes (an oversized payload is cut off
// there and fails decoding).
func (s *httpShard) post(ctx context.Context, frame []byte, out *wire.Buf) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/query", bytes.NewReader(frame))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := wire.ReadAll(out.B[:0], io.LimitReader(resp.Body, maxShardRespBytes))
	out.B = payload
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return shardStatusErr(resp.StatusCode, payload)
	}
	return nil
}

// shardStatusErr converts a worker's HTTP error back into the protocol's
// typed sentinels, so a coordinator's error classification (and its own
// HTTP status mapping) survives the extra hop.
func shardStatusErr(status int, payload []byte) error {
	msg := strings.TrimSpace(string(payload))
	var eb errorBody
	if json.Unmarshal(payload, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	switch status {
	case http.StatusBadRequest:
		return fmt.Errorf("%w: %s", adsketch.ErrBadRequest, msg)
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", adsketch.ErrUnknownDataset, msg)
	case http.StatusConflict:
		return fmt.Errorf("%w: %s", adsketch.ErrDatasetExists, msg)
	case http.StatusUnprocessableEntity:
		return fmt.Errorf("%w: %s", adsketch.ErrUnsupportedQuery, msg)
	case http.StatusServiceUnavailable:
		// The worker is alive but cannot answer right now (draining,
		// injected fault, its own downstream ejected).  Classified
		// unavailable so the coordinator retries or fails over instead of
		// treating it as a deterministic protocol error.
		return fmt.Errorf("%w: worker returned 503: %s", adsketch.ErrShardUnavailable, msg)
	default:
		return fmt.Errorf("worker returned %d: %s", status, msg)
	}
}

// Do answers one request as a batch of one.  A failure the worker
// reports inline arrives as its message only: the coordinator itself
// calls DoBatch, and tags such failures with the shard.
func (s *httpShard) Do(ctx context.Context, req adsketch.Request) (adsketch.Response, error) {
	resps, err := s.DoBatch(ctx, []adsketch.Request{req})
	switch {
	case err != nil:
		return adsketch.Response{}, err
	case len(resps) != 1:
		return adsketch.Response{}, fmt.Errorf("worker answered %d responses to one request", len(resps))
	case resps[0].Error != "":
		return adsketch.Response{}, errors.New(resps[0].Error)
	}
	return resps[0], nil
}

func (s *httpShard) DoBatch(ctx context.Context, reqs []adsketch.Request) ([]adsketch.Response, error) {
	frame := wire.Get()
	defer frame.Free()
	wire.EncodeRequests(frame, reqs)
	out := wire.Get()
	defer out.Free()
	if err := s.post(ctx, frame.B, out); err != nil {
		return nil, err
	}
	resps, _, err := wire.DecodeResponses(out.B)
	if err != nil {
		return nil, fmt.Errorf("decoding worker batch response: %v", err)
	}
	return resps, nil
}
