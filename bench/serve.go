package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"adsketch"
)

// serve_point and serve_scatter: the online side.  Shares of the
// measured window: phase A (closed loop) 38%, phase B (open loop at the
// workload's fixed rate) 50%; the accuracy pass follows them.
const (
	closedShare = 0.38
	openShare   = 0.50
	warmUp      = 300 * time.Millisecond
	// clients is the number of keep-alive connections, each with one
	// request in flight, of both phases.
	clients = 2
)

// Traffic mixes.  Nodes are uniform over the graph, so every node's
// index is hot after warm-up and the mixes differ in fan-out and in how
// often the full-scan top-k blocks a connection.
var (
	pointTraffic = []mixEntry{
		{700, shapeCloseness, 1},
		{200, shapeNeighborhood, 1},
		{80, shapeCloseness, 16},
		{20, shapeTopK, 0},
	}
	scatterTraffic = []mixEntry{
		{700, shapeCloseness, 16},
		{200, shapeNeighborhood, 16},
		{100, shapeTopK, 0},
	}
)

// topology is one running serving tier.
type topology struct {
	front   *proc   // where clients send: the single server or the coordinator
	workers []*proc // the partition workers behind a coordinator
}

func (t *topology) stop() {
	t.front.stop()
	for _, w := range t.workers {
		w.stop()
	}
}

// startTopology starts one adsserver on the whole-set file, or one
// worker per partition file plus a coordinator over them.
func startTopology(e *env, bin string, files []string) (*topology, error) {
	if len(files) == 1 {
		front, err := e.startServer(bin, "-sketches", files[0], "-mmap")
		if err != nil {
			return nil, err
		}
		return &topology{front: front}, nil
	}
	t := &topology{}
	urls := make([]string, len(files))
	for i, f := range files {
		w, err := e.startServer(bin, "-sketches", f, "-mmap")
		if err != nil {
			return nil, err
		}
		t.workers = append(t.workers, w)
		urls[i] = w.base
	}
	front, err := e.startServer(bin, "-workers", strings.Join(urls, ","))
	if err != nil {
		return nil, err
	}
	t.front = front
	return t, nil
}

// writePartitions splits set in two and writes the partition files the
// workers map, returning their paths and summed size.
func writePartitions(e *env, set adsketch.SketchSet) (files []string, total int64, err error) {
	parts, err := adsketch.SplitSketchSet(set, 2)
	if err != nil {
		return nil, 0, err
	}
	for i, p := range parts {
		path := e.path(fmt.Sprintf("part%d.v3", i))
		n, err := writeFile(path, func(w io.Writer) (int64, error) { return adsketch.WritePartitionV3(w, p) })
		if err != nil {
			return nil, 0, err
		}
		files = append(files, path)
		total += n
	}
	return files, total, nil
}

// serving is a serving tier set up to take traffic.
type serving struct {
	built   *builtSet
	bytes   int64 // of the files served
	exact   *truth
	topo    *topology
	clients []*httpClient
}

func (s *serving) close() {
	for _, cl := range s.clients {
		cl.close()
	}
	if s.topo != nil {
		s.topo.stop()
	}
}

// setUpServe does everything a deployment does before it takes traffic:
// graph, edge list, one pass of the offline pipeline (for the
// coordinator tier ending with the split and the partition files),
// exact answers, servers up, connections open and warm.
func setUpServe(e *env, c config, bin string, scatter bool, load stream) (*serving, error) {
	s := &serving{}
	g := adsketch.PreferentialAttachment(c.sz.n, graphM, graphSeed)
	edgePath, sketchPath := e.path("graph.txt"), e.path("sketches.v3")
	if err := writeEdgeList(edgePath, g); err != nil {
		return nil, err
	}
	var err error
	if s.built, err = buildPipeline(c.tr, edgePath, sketchPath); err != nil {
		return nil, err
	}
	files := []string{sketchPath}
	s.bytes = s.built.bytes
	if scatter {
		if files, s.bytes, err = writePartitions(e, s.built.set); err != nil {
			return nil, err
		}
	}
	s.exact = exactTruth(g, c.seed, c.sz.sample)
	if s.topo, err = startTopology(e, bin, files); err != nil {
		return nil, err
	}
	doers := make([]doFunc, clients)
	for i := range doers {
		cl := newHTTPClient(s.topo.front.base)
		s.clients = append(s.clients, cl)
		doers[i] = cl.do
	}
	topk := topKRequest()
	if _, err := doers[0](&topk); err != nil { // builds every index arena
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := closedLoop(nil, "warm-up", load, 2<<32, doers, warmUp).ok(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func runServe(e *env, c config, r *result, scatter bool) error {
	m := r.metrics
	traffic := pointTraffic
	if scatter {
		traffic = scatterTraffic
	}
	load := stream{seed: c.seed, mix: traffic, n: c.sz.n}

	// Compiling the server is the benchmark's cost, not the deployment's:
	// it happens before the set-up clock starts.
	bin, compile, err := e.compileServer()
	if err != nil {
		return err
	}
	var s *serving
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	setups, err := timeEach(setupRepeats, func() error {
		if s != nil {
			s.close()
		}
		s, err = setUpServe(e, c, bin, scatter, load)
		return err
	})
	if err != nil {
		return err
	}
	m["setup_s"] = median(setups) / 1e9
	m["sketch_bytes_per_node"] = float64(s.bytes) / float64(c.sz.n)
	r.count(setupRepeats)

	refEngine, err := adsketch.NewEngine(s.built.set)
	if err != nil {
		return err
	}
	ref := backendDo(refEngine)
	doers := make([]doFunc, len(s.clients))
	for i, cl := range s.clients {
		doers[i] = cl.do
	}
	run := func(p *phase) error {
		if err := r.add(e, p); err != nil {
			return err
		}
		return checkKept(p, load, ref)
	}

	// Phase A: closed loop, throughput.
	dur := c.window(closedShare)
	var untraced *phase
	if c.tr != nil {
		// Half the phase without spans, half with: the ratio of the two
		// rates is what tracing costs.
		dur /= 2
		untraced = closedLoop(nil, "A-untraced", load, 1<<32, doers, dur)
		if err := run(untraced); err != nil {
			return err
		}
	}
	a := closedLoop(c.tr, "A-closed", load, 0, doers, dur)
	if err := run(a); err != nil {
		return err
	}
	m["e2e.queries_per_s"] = a.rate()

	// Phase B: open loop, latency from the due time.
	b := openLoop(c.tr, "B-open", load, 3<<32, doers, c.sz.openRate, c.window(openShare), nil)
	if err := run(b); err != nil {
		return err
	}
	if err := latencyMetrics(e, r, b); err != nil {
		return err
	}
	late, err := checkLateness(e, b, m["e2e.query_p50_us"])
	if err != nil {
		return err
	}

	// Accuracy of the answers as served.
	var requests int
	if m["closeness_nrmse"], m["neighborhood_nrmse"], requests, err = s.exact.accuracy(doers[0], sketchK); err != nil {
		return err
	}
	r.count(requests)
	if c.tr == nil {
		return nil
	}

	m["loadgen.late_p99_us"] = late
	m["bench.compile_s"] = compile.Seconds()
	m["bench.trace_overhead_ratio"] = untraced.rate() / a.rate()
	sketchPath := e.path("sketches.v3")
	if err := inprocLadder(c, r, sketchPath); err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	if !scatter {
		return httpLadder(e, c, r, s.topo.front.base, c.sz.n)
	}
	// The rung below the coordinator is one binary hop to a worker,
	// with the sample folded into the nodes that worker owns.
	if err := httpLadder(e, c, r, s.topo.workers[0].base, c.sz.n/2); err != nil {
		return err
	}
	return scatterLadder(e, c, r, s.built.set, s.topo.front.base, traffic)
}
