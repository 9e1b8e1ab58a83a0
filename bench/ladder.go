package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"adsketch"
	"adsketch/internal/wire"
)

// The layer ladder of the traced run: one sample of point requests
// (closeness of one node) replayed sequentially at each rung of the
// serving pipeline — HIP lookup, Engine.Do, Catalog.Do, in-process wire
// round trip, binary HTTP hop, two-shard coordinator.  A layer's self
// time is its rung minus the rung below.  In-process rungs are too
// short to time one call at a time, so they report the mean of the
// whole replay; network rungs report the median round trip.

var pointMix = []mixEntry{{1000, shapeCloseness, 1}}

// ladderRepeats is the repetition count of the ladder's one-shot
// operations (opens, swaps, top-k scans).
const ladderRepeats = 15

// ladderPasses is how often an in-process rung replays the sample; the
// rung reports the median pass, so a collection or a neighbour's burst
// in one pass does not decide the order of two rungs 100 ns apart.
const ladderPasses = 5

// meanNS replays fn(0..count-1) ladderPasses times and returns the
// median pass's nanoseconds per call.
func meanNS(count int, fn func(i int) error) (float64, error) {
	passes := make([]float64, ladderPasses)
	for p := range passes {
		start := time.Now()
		for i := 0; i < count; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		passes[p] = float64(time.Since(start)) / float64(count)
	}
	return median(passes), nil
}

// timeEach times fn count times and returns every duration in
// nanoseconds.
func timeEach(count int, fn func() error) ([]float64, error) {
	durs := make([]float64, count)
	for i := range durs {
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		durs[i] = float64(time.Since(start))
	}
	return durs, nil
}

// medianOf times fn count times and returns the median duration.
func medianOf(count int, fn func() error) (time.Duration, error) {
	durs, err := timeEach(count, fn)
	return time.Duration(median(durs)), err
}

// inprocLadder measures the in-process rungs on the v3 file at path.
func inprocLadder(c config, r *result, path string) error {
	ctx := context.Background()
	m := r.metrics
	sample := foldedPoint(c.seed, c.sz.n)
	count := c.sz.ladder
	// Built up front: making a request costs more than the lower rungs.
	reqs := make([]adsketch.Request, count)
	for i := range reqs {
		reqs[i] = sample.at(i)
	}

	d, err := medianOf(ladderRepeats, func() error {
		sf, err := adsketch.MmapSketchFile(path)
		if err != nil {
			return err
		}
		return sf.Close()
	})
	if err != nil {
		return err
	}
	m["core.mmap_v3_us"] = float64(d) / 1e3
	d, err = medianOf(5, func() error {
		sf, err := adsketch.OpenSketchFile(path)
		if err != nil {
			return err
		}
		return sf.Close()
	})
	if err != nil {
		return err
	}
	m["core.open_v3_ms"] = float64(d) / 1e6

	sf, err := adsketch.MmapSketchFile(path)
	if err != nil {
		return err
	}
	defer sf.Close()
	set := adsketch.SketchSet(sf.Set())
	eng, err := adsketch.NewEngine(set)
	if err != nil {
		return err
	}

	// Rung 0: the HIP index.  The first touch builds the whole set's
	// index arena; later touches are a slot load and a lookup.
	var sink float64
	lookup := func(i int) error {
		x, err := eng.Index(reqs[i].Closeness.Nodes[0])
		if err != nil {
			return err
		}
		sink += x.Closeness()
		return nil
	}
	start := time.Now()
	if err := lookup(0); err != nil {
		return err
	}
	m["core.index_arena_ms"] = float64(time.Since(start)) / 1e6
	if m["core.hip_lookup_ns"], err = meanNS(count, lookup); err != nil {
		return err
	}

	// Rung 1: Engine.Do.
	before := eng.CacheStats()
	engDo := backendDo(eng)
	point := func(do doFunc) func(int) error {
		return func(i int) error {
			_, err := do(&reqs[i])
			return err
		}
	}
	if m["engine.do_point_ns"], err = meanNS(count, point(engDo)); err != nil {
		return err
	}
	batch := stream{seed: sample.seed, mix: []mixEntry{{1000, shapeCloseness, 16}}, n: c.sz.n}
	batchReqs := make([]adsketch.Request, count/16)
	for i := range batchReqs {
		batchReqs[i] = batch.at(i)
	}
	ns, err := meanNS(len(batchReqs), func(i int) error {
		_, err := engDo(&batchReqs[i])
		return err
	})
	if err != nil {
		return err
	}
	m["engine.do_batch16_us"] = ns / 1e3
	topk := topKRequest()
	d, err = medianOf(ladderRepeats, func() error {
		_, err := engDo(&topk)
		return err
	})
	if err != nil {
		return err
	}
	m["engine.topk_us"] = float64(d) / 1e3
	after := eng.CacheStats()
	m["engine.cache_hits"] = float64(after.Hits - before.Hits)
	m["engine.cache_misses"] = float64(after.Misses - before.Misses)

	// Rung 2: Catalog.Do, and the cost of publishing a version.
	cat, err := adsketch.NewCatalog()
	if err != nil {
		return err
	}
	defer cat.Close()
	if err := cat.Attach(adsketch.DefaultDataset, adsketch.SetSource(set)); err != nil {
		return err
	}
	catDo := func(req *adsketch.Request) (adsketch.Response, error) { return cat.Do(ctx, *req) }
	if _, err := catDo(&topk); err != nil { // same warm state as the engine rung
		return err
	}
	if m["catalog.do_point_ns"], err = meanNS(count, point(catDo)); err != nil {
		return err
	}
	m["catalog.self_ns"] = m["catalog.do_point_ns"] - m["engine.do_point_ns"]
	d, err = medianOf(ladderRepeats, func() error {
		_, err := cat.Swap("scratch", adsketch.SetSource(set))
		return err
	})
	if err != nil {
		return err
	}
	m["catalog.swap_us"] = float64(d) / 1e3

	// Rung 3: the wire round trip a binary request pays around
	// Engine.Do, first as one number, then span by span.
	in, out := wire.Get(), wire.Get()
	defer in.Free()
	defer out.Free()
	var reqBytes, respBytes int
	roundtrip := func(tr *tracer) func(int) error {
		return func(i int) error {
			root := tr.begin("wire.roundtrip", -1, i)
			sp := tr.begin("wire.encode_request", root, i)
			wire.EncodeRequest(in, &reqs[i])
			tr.end(sp)
			sp = tr.begin("wire.decode_request", root, i)
			decoded, err := wire.DecodeRequest(in.B)
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin("engine.do", root, i)
			resp, err := eng.Do(ctx, decoded)
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin("wire.encode_response", root, i)
			wire.EncodeResponse(out, &resp)
			tr.end(sp)
			sp = tr.begin("wire.decode_response", root, i)
			_, err = wire.DecodeResponse(out.B)
			tr.end(sp)
			tr.end(root)
			reqBytes += len(in.B)
			respBytes += len(out.B)
			return err
		}
	}
	if m["wire.roundtrip_inproc_ns"], err = meanNS(count, roundtrip(nil)); err != nil {
		return err
	}
	m["wire.request_bytes"] = float64(reqBytes) / float64(count*ladderPasses)
	m["wire.response_bytes"] = float64(respBytes) / float64(count*ladderPasses)
	if _, err := meanNS(count, roundtrip(c.tr)); err != nil {
		return err
	}
	totals := selfTimes(c.tr.snapshot())
	for _, name := range []string{"encode_request", "decode_request", "encode_response", "decode_response"} {
		if t := totals["wire."+name]; t != nil {
			m["wire."+name+"_ns"] = t.Total / float64(t.Count)
		}
	}

	m["json.roundtrip_inproc_ns"], err = meanNS(count/4, func(i int) error {
		body, err := json.Marshal(&reqs[i])
		if err != nil {
			return err
		}
		var decoded adsketch.Request
		if err := json.Unmarshal(body, &decoded); err != nil {
			return err
		}
		resp, err := eng.Do(ctx, decoded)
		if err != nil {
			return err
		}
		if body, err = json.Marshal(&resp); err != nil {
			return err
		}
		return json.Unmarshal(body, new(adsketch.Response))
	})
	if sink < 0 {
		return fmt.Errorf("negative closeness sum %g", sink)
	}
	return err
}

// serverCounters is the part of /statsz the ladder reads.  The endpoint
// is due to be re-rendered, so a missing field is a warning and a 0,
// not a failure.
type serverCounters struct {
	Queries *int64 `json:"queries"`
	Scatter []struct {
		Calls   int64 `json:"calls"`
		Retries int64 `json:"retries"`
	} `json:"scatter"`
}

func readCounters(e *env, base string) serverCounters {
	var sc serverCounters
	body, err := httpGet(&http.Client{Timeout: requestTimeout}, base+"/statsz")
	if err == nil {
		err = json.Unmarshal(body, &sc)
	}
	if err != nil {
		e.log("warning: reading %s/statsz: %v", base, err)
	}
	return sc
}

// foldedPoint is the ladder's point sample over nodes [0, hi); hi below
// the node count gives the requests one partition worker can answer.
func foldedPoint(seed uint64, hi int) stream {
	return stream{seed: seed ^ 0x6c6164646572, mix: pointMix, n: hi}
}

// httpLadder measures the network rungs against the server at base,
// which owns nodes [0, owned).
func httpLadder(e *env, c config, r *result, base string, owned int) error {
	m := r.metrics
	sample := foldedPoint(c.seed, owned)
	count := c.sz.hops
	before := readCounters(e, base)

	cl := newHTTPClient(base)
	defer cl.close()
	hop := func(do doFunc) (float64, error) {
		lats := make([]float64, count)
		for i := range lats {
			req := sample.at(i)
			start := time.Now()
			if _, err := do(&req); err != nil {
				return 0, fmt.Errorf("ladder hop %d: %w", i, err)
			}
			lats[i] = float64(time.Since(start)) / 1e3
		}
		return median(lats), nil
	}
	var err error
	if m["http.hop_binary_us"], err = hop(cl.do); err != nil {
		return err
	}
	m["http.self_us"] = m["http.hop_binary_us"] - m["wire.roundtrip_inproc_ns"]/1e3
	m["http.hop_json_us"], err = hop(func(req *adsketch.Request) (adsketch.Response, error) {
		var resp adsketch.Response
		body, err := json.Marshal(req)
		if err != nil {
			return resp, err
		}
		payload, err := cl.post("application/json", body)
		if err != nil {
			return resp, err
		}
		return resp, json.Unmarshal(payload, &resp)
	})
	if err != nil {
		return err
	}

	const batchSize = 64
	batches := max(count/batchSize, 10)
	reqs := make([]adsketch.Request, batchSize)
	buf := wire.Get()
	defer buf.Free()
	next := 0
	d, err := medianOf(batches, func() error {
		for j := range reqs {
			reqs[j] = sample.at(next)
			next++
		}
		wire.EncodeRequests(buf, reqs)
		payload, err := cl.post(wire.ContentType, buf.B)
		if err != nil {
			return err
		}
		resps, _, err := wire.DecodeResponses(payload)
		if err == nil && len(resps) != batchSize {
			err = fmt.Errorf("batch answered %d of %d requests", len(resps), batchSize)
		}
		return err
	})
	if err != nil {
		return err
	}
	m["http.batch64_us"] = float64(d) / 1e3

	after := readCounters(e, base)
	if before.Queries == nil || after.Queries == nil {
		e.log("warning: /statsz has no \"queries\" field; http.server_requests reported as 0")
	} else {
		m["http.server_requests"] = float64(*after.Queries - *before.Queries)
	}
	return nil
}

// scatterLadder measures the coordinator rungs: the point sample
// through an in-process two-partition coordinator and through the HTTP
// coordinator at base, the fan-out of the workload's own mix, and the
// coordinator's shard counters.
func scatterLadder(e *env, c config, r *result, set adsketch.SketchSet, base string, mix []mixEntry) error {
	m := r.metrics
	sample := foldedPoint(c.seed, c.sz.n)
	coord, err := adsketch.NewPartitionedEngine(set, 2)
	if err != nil {
		return err
	}
	coordDo := backendDo(coord)
	ns, err := meanNS(c.sz.ladder, func(i int) error {
		req := sample.at(i)
		_, err := coordDo(&req)
		return err
	})
	if err != nil {
		return err
	}
	m["cluster.scatter_inproc_us"] = ns / 1e3

	topk := topKRequest()
	if _, err := coordDo(&topk); err != nil {
		return err
	}
	d, err := medianOf(ladderRepeats, func() error {
		_, err := coordDo(&topk)
		return err
	})
	if err != nil {
		return err
	}
	m["cluster.topk_merge_us"] = float64(d)/1e3 - m["engine.topk_us"]

	own := stream{seed: c.seed, mix: mix, n: c.sz.n}
	var fanout, explained int
	for i := 0; i < 1000; i++ {
		req := own.at(i)
		req.Explain = true
		resp, err := coordDo(&req)
		if err != nil {
			return err
		}
		if resp.Merge != nil {
			fanout += len(resp.Merge.Shards)
			explained++
		}
	}
	if explained > 0 {
		m["cluster.fanout_mean"] = float64(fanout) / float64(explained)
	}

	before := readCounters(e, base)
	cl := newHTTPClient(base)
	defer cl.close()
	lats := make([]float64, c.sz.hops)
	for i := range lats {
		req := sample.at(i)
		start := time.Now()
		if _, err := cl.do(&req); err != nil {
			return fmt.Errorf("coordinator hop %d: %w", i, err)
		}
		lats[i] = float64(time.Since(start)) / 1e3
	}
	m["cluster.scatter_http_us"] = median(lats)
	m["cluster.self_us"] = m["cluster.scatter_http_us"] - m["http.hop_binary_us"]
	after := readCounters(e, base)
	if len(after.Scatter) == 0 || len(after.Scatter) != len(before.Scatter) {
		e.log("warning: /statsz has no \"scatter\" counters; cluster.shard_attempts and cluster.shard_retries reported as 0")
		return nil
	}
	for i := range after.Scatter {
		m["cluster.shard_attempts"] += float64(after.Scatter[i].Calls - before.Scatter[i].Calls)
		m["cluster.shard_retries"] += float64(after.Scatter[i].Retries - before.Scatter[i].Retries)
	}
	return nil
}
