package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"adsketch"
)

// ingest_serve: the write path under read load.  One writer inserts
// windows of edges, freezes and publishes each through Catalog.Swap,
// and probes the new version with a top-k; one reader queries the
// catalog meanwhile, open loop at a fixed rate.
const (
	liveDataset = "live"
	// windowsPerSecond sizes the run: a window of 400 edges, its freeze
	// and its probe took 0.5-0.9 s under the reader's load on the
	// calibration machine, so this many windows per second of measured
	// window fill it at the median.  The count is fixed by -seconds, not by
	// progress, because the final graph's ground truth is part of the
	// set-up.
	windowsPerSecond = 1.5
	minWindows       = 4
)

// readerMix is the reader's traffic: point lookups, and enough top-k
// scans that their median rests on several hundred samples.
var readerMix = []mixEntry{
	{980, shapeCloseness, 1},
	{20, shapeTopK, 0},
}

// ingesting is an ingestor set up to take edges, with version 1 of its
// dataset published and warm.
type ingesting struct {
	cat        *adsketch.Catalog
	ing        *adsketch.Ingestor
	edges      []adsketch.Edge
	finalGraph *adsketch.Graph
	exact      *truth // of finalGraph
	do         doFunc // Catalog.Do on the live dataset
}

// setUpIngest builds the base graph and sketches, draws the edge stream,
// computes the final graph's exact answers, and publishes version 1.
func setUpIngest(c config, windows int, load stream) (*ingesting, error) {
	g := adsketch.PreferentialAttachment(c.sz.n, graphM, graphSeed)
	src, err := adsketch.NewRandomEdgeSource(c.sz.n, windows*c.sz.window, false, c.seed)
	if err != nil {
		return nil, err
	}
	final := adsketch.NewGraphBuilder(c.sz.n, false)
	g.ForEachArc(func(u, v int32, _ float64) {
		if u < v {
			final.AddEdge(u, v)
		}
	})
	s := &ingesting{edges: make([]adsketch.Edge, 0, windows*c.sz.window)}
	for {
		edge, ok := src.Next()
		if !ok {
			break
		}
		s.edges = append(s.edges, edge)
		final.AddEdge(edge.U, edge.V)
	}
	s.finalGraph = final.Build()
	s.exact = exactTruth(s.finalGraph, c.seed, c.sz.sample)
	base, err := adsketch.Build(g, adsketch.WithK(sketchK), adsketch.WithSeed(rankSeed))
	if err != nil {
		return nil, err
	}
	if s.cat, err = adsketch.NewCatalog(); err != nil {
		return nil, err
	}
	if s.ing, err = adsketch.NewIngestor(g, base, adsketch.WithPublish(s.cat, liveDataset)); err != nil {
		s.cat.Close()
		return nil, err
	}
	if _, err := s.ing.Freeze(); err != nil {
		s.cat.Close()
		return nil, err
	}
	ctx := context.Background()
	s.do = func(req *adsketch.Request) (adsketch.Response, error) {
		q := *req
		q.Dataset = liveDataset
		return s.cat.Do(ctx, q)
	}
	topk := topKRequest()
	if _, err := s.do(&topk); err != nil {
		s.cat.Close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := closedLoop(nil, "warm-up", load, 2<<32, []doFunc{s.do}, warmUp).ok(); err != nil {
		s.cat.Close()
		return nil, err
	}
	return s, nil
}

func runIngestServe(e *env, c config, r *result) error {
	m := r.metrics
	windows := max(minWindows, int(math.Round(c.seconds*windowsPerSecond)))
	load := stream{seed: c.seed, mix: readerMix, n: c.sz.n}

	var s *ingesting
	defer func() {
		if s != nil {
			s.cat.Close()
		}
	}()
	setups, err := timeEach(setupRepeats, func() error {
		if s != nil {
			s.cat.Close()
		}
		var err error
		s, err = setUpIngest(c, windows, load)
		return err
	})
	if err != nil {
		return err
	}
	m["setup_s"] = median(setups) / 1e9
	r.count(setupRepeats)
	ing, edges := s.ing, s.edges
	reader := []doFunc{s.do}
	topk := topKRequest()

	// The measured window.
	statsBefore := ing.Stats().Maintainer
	stop := make(chan struct{})
	done := make(chan *phase, 1)
	go func() { done <- openLoop(c.tr, "reader", load, 0, reader, c.sz.openRate, 0, stop) }()
	var insertNS, freezeMS, probeMS, lagMS []float64
	var last *adsketch.FreezeResult
	start := time.Now()
	var published time.Time
	for w := 0; w < windows && err == nil; w++ {
		batch := edges[w*c.sz.window : (w+1)*c.sz.window]
		root := c.tr.begin("ingest.window", -1, w)
		sp := c.tr.begin("ingest.insert", root, w)
		if c.tr == nil {
			_, err = ing.InsertBatch(batch)
		} else {
			// One call per edge, so the traced run sees the spread of
			// single insertions.
			for i := range batch {
				t := time.Now()
				if _, err = ing.InsertBatch(batch[i : i+1]); err != nil {
					break
				}
				insertNS = append(insertNS, float64(time.Since(t)))
			}
		}
		c.tr.end(sp)
		if err == nil {
			frozen := time.Now()
			sp = c.tr.begin("ingest.freeze", root, w)
			last, err = ing.Freeze()
			c.tr.end(sp)
			published = time.Now()
			freezeMS = append(freezeMS, float64(published.Sub(frozen))/1e6)
			if err == nil {
				sp = c.tr.begin("ingest.first_query", root, w)
				_, err = s.do(&topk)
				c.tr.end(sp)
				answered := time.Now()
				probeMS = append(probeMS, float64(answered.Sub(published))/1e6)
				lagMS = append(lagMS, float64(answered.Sub(frozen))/1e6)
			}
		}
		c.tr.end(root)
		if err != nil {
			err = fmt.Errorf("window %d: %w", w, err)
		}
	}
	close(stop)
	read := <-done
	if err != nil {
		return err
	}
	r.count(3 * windows)
	m["e2e.ingest_edges_per_s"] = float64(len(edges)) / published.Sub(start).Seconds()
	m["e2e.publish_lag_ms"] = median(lagMS)
	e.log("ingest: %d windows of %d edges in %.3fs, median publish lag %.1fms", windows, c.sz.window, published.Sub(start).Seconds(), median(lagMS))

	if err := r.add(e, read); err != nil {
		return err
	}
	if err := latencyMetrics(e, r, read); err != nil {
		return err
	}
	late, err := checkLateness(e, read, m["e2e.query_p50_us"])
	if err != nil {
		return err
	}

	// Timing has stopped.  The final frame must be the bytes a full
	// Build of the final graph produces, and answer within the bound.
	var got, want bytes.Buffer
	if _, err := adsketch.WriteSketchSetV3(&got, last.Set); err != nil {
		return err
	}
	rebuilt, err := adsketch.Build(s.finalGraph, adsketch.WithK(sketchK), adsketch.WithSeed(rankSeed))
	if err != nil {
		return err
	}
	if _, err := adsketch.WriteSketchSetV3(&want, rebuilt); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		return fmt.Errorf("final ingest frame differs from Build of the final graph (%d vs %d bytes)", got.Len(), want.Len())
	}
	m["sketch_bytes_per_node"] = float64(got.Len()) / float64(last.Nodes)
	var requests int
	if m["closeness_nrmse"], m["neighborhood_nrmse"], requests, err = s.exact.accuracy(s.do, sketchK); err != nil {
		return err
	}
	r.count(requests)
	if c.tr == nil {
		return nil
	}

	st := ing.Stats().Maintainer
	offers := float64(st.Offers - statsBefore.Offers)
	m["ingest.insert_us_mean"] = mean(insertNS) / 1e3
	m["ingest.insert_p99_us"] = percentile(sortedCopy(insertNS), 99) / 1e3
	m["ingest.freeze_ms"] = median(freezeMS)
	m["ingest.first_query_ms"] = median(probeMS)
	m["ingest.offers_per_edge"] = offers / float64(len(edges))
	if offers > 0 {
		m["ingest.accepts_per_offer"] = float64(st.Accepts-statsBefore.Accepts) / offers
	}
	m["ingest.frontier_max"] = float64(st.FrontierMax)
	m["loadgen.late_p99_us"] = late
	if err := traceOverhead(c, r, load, s.do); err != nil {
		return err
	}
	path := e.path("final.v3")
	if _, err := writeV3(path, last.Set); err != nil {
		return err
	}
	if err := inprocLadder(c, r, path); err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	return nil
}
