package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"adsketch"
)

// metricDef names one metric of BENCHMARK.json.  The tables below are
// the source the JSON file is checked against (TestBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the gated metrics: what every workload prints from an
// untraced run.  The driver's contract makes this table rectangular and
// rejects a benchmark whose same-code runs spread by more than a bound
// of at most 25%.  On the shared machine this was calibrated on, no
// wall-clock measurement stays inside that (setup_s is exempt), so the
// issue's timing metrics are demoted to the per-layer table below as
// e2e.* (README.md, "What is gated, and what the demotion rule took
// out").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sketch_bytes_per_node", "B", "lower"},
	{"closeness_nrmse", "ratio", "lower"},
	{"neighborhood_nrmse", "ratio", "lower"},
}

// perLayer lists the traced run's metrics.  e2e.* are the issue's
// end-to-end timings, each reported by the workloads that stress it;
// the rest are <module>.<what>.  A workload that does no work in a
// layer reports 0 for it.
var perLayer = []metricDef{
	{"e2e.build_edges_per_s", "edges/s", "higher"},
	{"e2e.distbuild_edges_per_s", "edges/s", "higher"},
	{"e2e.cold_open_ms", "ms", "lower"},
	{"e2e.queries_per_s", "1/s", "higher"},
	{"e2e.query_p50_us", "us", "lower"},
	{"e2e.query_p99_us", "us", "lower"},
	{"e2e.topk_p50_us", "us", "lower"},
	{"e2e.ingest_edges_per_s", "edges/s", "higher"},
	{"e2e.publish_lag_ms", "ms", "lower"},
	{"graph.parse_s", "s", "lower"},
	{"core.build_s", "s", "lower"},
	{"core.build_entries", "count", "lower"},
	{"core.build_alloc_mb", "MB", "lower"},
	{"core.write_v3_s", "s", "lower"},
	{"core.mmap_v3_us", "us", "lower"},
	{"core.open_v3_ms", "ms", "lower"},
	{"core.index_arena_ms", "ms", "lower"},
	{"core.hip_lookup_ns", "ns", "lower"},
	{"engine.do_point_ns", "ns", "lower"},
	{"engine.do_batch16_us", "us", "lower"},
	{"engine.topk_us", "us", "lower"},
	{"engine.cache_hits", "count", "higher"},
	{"engine.cache_misses", "count", "lower"},
	{"catalog.do_point_ns", "ns", "lower"},
	{"catalog.self_ns", "ns", "lower"},
	{"catalog.swap_us", "us", "lower"},
	{"wire.encode_request_ns", "ns", "lower"},
	{"wire.decode_request_ns", "ns", "lower"},
	{"wire.encode_response_ns", "ns", "lower"},
	{"wire.decode_response_ns", "ns", "lower"},
	{"wire.roundtrip_inproc_ns", "ns", "lower"},
	{"wire.request_bytes", "B", "lower"},
	{"wire.response_bytes", "B", "lower"},
	{"json.roundtrip_inproc_ns", "ns", "lower"},
	{"http.hop_binary_us", "us", "lower"},
	{"http.hop_json_us", "us", "lower"},
	{"http.self_us", "us", "lower"},
	{"http.batch64_us", "us", "lower"},
	{"http.server_requests", "count", "higher"},
	{"cluster.scatter_inproc_us", "us", "lower"},
	{"cluster.scatter_http_us", "us", "lower"},
	{"cluster.self_us", "us", "lower"},
	{"cluster.topk_merge_us", "us", "lower"},
	{"cluster.fanout_mean", "count", "lower"},
	{"cluster.shard_attempts", "count", "lower"},
	{"cluster.shard_retries", "count", "lower"},
	{"ingest.insert_us_mean", "us", "lower"},
	{"ingest.insert_p99_us", "us", "lower"},
	{"ingest.freeze_ms", "ms", "lower"},
	{"ingest.first_query_ms", "ms", "lower"},
	{"ingest.offers_per_edge", "count", "lower"},
	{"ingest.accepts_per_offer", "ratio", "higher"},
	{"ingest.frontier_max", "count", "lower"},
	{"distbuild.rounds", "count", "lower"},
	{"distbuild.candidates", "count", "lower"},
	{"distbuild.init_s", "s", "lower"},
	{"distbuild.step_s", "s", "lower"},
	{"distbuild.freeze_s", "s", "lower"},
	{"distbuild.worker_busy_ratio", "ratio", "higher"},
	{"distbuild.barrier_wait_s", "s", "lower"},
	{"distbuild.p1_wall_s", "s", "lower"},
	{"loadgen.late_p99_us", "us", "lower"},
	{"bench.compile_s", "s", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
}

// The dataset of every workload is PreferentialAttachment(n, graphM,
// graphSeed) sketched with k = sketchK under rank seed rankSeed.  It
// does not change with -seed, which drives the traffic instead: request
// streams, accuracy samples, the ingest edge stream.  Under one rank
// seed the accuracy of a graph is one draw of a common-mode error;
// re-drawing it per run (closeness NRMSE 0.21-0.29 over six graphs)
// would bury an estimator regression under input noise.
const (
	sketchK   = 16
	rankSeed  = 42
	graphM    = 5 // edges each arriving node attaches
	graphSeed = 1
)

// sizes fixes how much work a workload does.  The full sizes were timed
// on the two-core machine the bounds were calibrated on; the smoke test
// runs every workload at about a fiftieth of them.
type sizes struct {
	n         int     // nodes of the workload's graph
	sample    int     // nodes with exact BFS ground truth
	reps      int     // repetitions of the offline pipeline, at least, and of the distributed build
	coldOpens int     // repetitions of the cold open
	openRate  float64 // open-loop arrivals per second, fixed: the issue's rates, 20-25% of what the closed loop reaches
	window    int     // edges per ingest window
	ladder    int     // requests per in-process ladder rung
	hops      int     // requests per network ladder rung
	distN     int     // nodes of the distributed-build graph
}

// config is one run.
type config struct {
	seed    uint64
	seconds float64 // length of the measured window
	tr      *tracer // nil for the untraced run
	sz      sizes
}

// window returns the share of the measured window as a duration.
func (c config) window(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// result is what one run measured.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
}

func newResult() *result { return &result{metrics: make(map[string]float64)} }

// count adds operations that were attempted and did not fail.
func (r *result) count(n int) { r.attempted += n }

// add logs a load phase, adds its requests to the run's, and fails when
// any of them failed.
func (r *result) add(e *env, p *phase) error {
	e.log("%v", p)
	r.attempted += p.attempted
	r.failed += p.failed
	return p.ok()
}

// workload is one entry of BENCHMARK.json's workload list.
type workload struct {
	name string
	why  string
	sz   sizes
	run  func(e *env, c config, r *result) error
}

var workloads = []workload{
	{
		name: "build_offline",
		why:  "the only workload where the core builders, the v3 codec and distbuild do the work (parse, Build, write, distributed build, mmap, cold index); serving layers do none",
		sz:   sizes{n: 10000, sample: 1200, reps: 3, coldOpens: 15, ladder: 20000, distN: 2000},
		run:  runBuildOffline,
	},
	{
		name: "serve_point",
		why:  "small queries to one adsserver over binary HTTP: the hop, wire, catalog and Engine.Do dominate; build and scatter idle",
		sz:   sizes{n: 10000, sample: 1200, openRate: 2000, ladder: 20000, hops: 4000},
		run:  func(e *env, c config, r *result) error { return runServe(e, c, r, false) },
	},
	{
		name: "serve_scatter",
		why:  "16-node and top-k queries through a coordinator over two mmap workers: cluster planning, merge and three hops per query dominate",
		sz:   sizes{n: 10000, sample: 1200, openRate: 700, ladder: 20000, hops: 2000},
		run:  func(e *env, c config, r *result) error { return runServe(e, c, r, true) },
	},
	{
		name: "ingest_serve",
		why:  "the write path: Ingestor windows, freeze and Catalog.Swap under read load, so work moved to attach/swap time shows its cost",
		sz:   sizes{n: 10000, sample: 1200, openRate: 1000, window: 400, ladder: 20000},
		run:  runIngestServe,
	},
}

// setupRepeats is how often a workload sets up: setup_s is the median.
const setupRepeats = 3

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// builtSet is the outcome of one pass of the offline pipeline.
type builtSet struct {
	set     adsketch.SketchSet
	edges   int
	bytes   int64 // v3 file size
	wall    time.Duration
	allocMB float64 // bytes Build allocated; traced run only
}

// buildPipeline is the offline pipeline a deployment runs to make a
// graph queryable: parse the edge list, Build, write the v3 file.
func buildPipeline(tr *tracer, edgePath, outPath string) (*builtSet, error) {
	root := tr.begin("build_pipeline", -1, -1)
	defer tr.end(root)
	start := time.Now()

	sp := tr.begin("graph.parse", root, -1)
	f, err := os.Open(edgePath)
	if err != nil {
		return nil, err
	}
	g, err := adsketch.ReadEdgeList(f, false)
	f.Close()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", edgePath, err)
	}

	var before, after runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	sp = tr.begin("core.build", root, -1)
	set, err := adsketch.Build(g, adsketch.WithK(sketchK), adsketch.WithSeed(rankSeed))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		runtime.ReadMemStats(&after)
	}

	sp = tr.begin("core.write_v3", root, -1)
	n, err := writeV3(outPath, set)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &builtSet{
		set: set, edges: g.NumEdges(), bytes: n, wall: time.Since(start),
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
	}, nil
}

// writeFile creates path and fills it with write, returning the byte
// count write reports.
func writeFile(path string, write func(io.Writer) (int64, error)) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := write(f)
	if err != nil {
		f.Close()
		return 0, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("writing %s: %w", path, err)
	}
	return n, nil
}

// writeV3 writes set as a v3 file and returns its size.
func writeV3(path string, set adsketch.SketchSet) (int64, error) {
	return writeFile(path, func(w io.Writer) (int64, error) { return adsketch.WriteSketchSetV3(w, set) })
}

// writeEdgeList writes g as the edge-list file the pipeline parses.
func writeEdgeList(path string, g *adsketch.Graph) error {
	_, err := writeFile(path, func(w io.Writer) (int64, error) { return 0, adsketch.WriteEdgeList(w, g) })
	return err
}

// topKRequest is the probe query of every cold open and publish: it
// touches every node's index, so it pays for whatever a version
// computes lazily.
func topKRequest() adsketch.Request {
	return adsketch.Request{TopK: &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: topK}}
}

// Smallest segments the latency columns are computed on: a p99 needs
// ten samples beyond it, a median a tenth of that.
const (
	p99Segment = 1000
	p50Segment = 100
)

// latencyMetrics fills the latency metrics from one phase — the median
// of the per-segment percentiles — and logs the sample counts they rest
// on.
func latencyMetrics(e *env, r *result, p *phase) error {
	plain, top := p.latencies()
	if len(plain) == 0 || len(top) == 0 {
		return fmt.Errorf("%s: %d non-top-k and %d top-k answers: too few to report a latency", p.name, len(plain), len(top))
	}
	p50 := segmentPercentiles(plain, 50, p99Segment)
	p99 := segmentPercentiles(plain, 99, p99Segment)
	tk := segmentPercentiles(top, 50, p50Segment)
	r.metrics["e2e.query_p50_us"] = median(p50)
	r.metrics["e2e.query_p99_us"] = median(p99)
	r.metrics["e2e.topk_p50_us"] = median(tk)
	e.log("%s: %d non-top-k samples in %d segments (p50 %.0f us, p99 %.0f us per segment), %d top-k samples in %d segments (p50 %.0f us)",
		p.name, len(plain), len(p99), p50, p99, len(top), len(tk), tk)
	return nil
}

// overheadShare is the share of the measured window of each of the two
// closed loops of traceOverhead.
const overheadShare = 0.05

// traceOverhead prices the spans themselves in a workload whose own
// phases are not a closed loop: the same closed loop on do, without and
// with spans.
func traceOverhead(c config, r *result, load stream, do doFunc) error {
	doers := []doFunc{do}
	plain := closedLoop(nil, "overhead-untraced", load, 3<<32, doers, c.window(overheadShare))
	traced := closedLoop(c.tr, "overhead-traced", load, 3<<32, doers, c.window(overheadShare))
	if err := plain.ok(); err != nil {
		return err
	}
	if err := traced.ok(); err != nil {
		return err
	}
	r.metrics["bench.trace_overhead_ratio"] = plain.rate() / traced.rate()
	return nil
}

// minLatenessSample is the shortest open-loop phase checkLateness
// judges: below it (the smoke test's phases) a median means nothing.
const minLatenessSample = 100

// checkLateness rejects an open-loop phase whose generator was itself
// the bottleneck: no send ever had to wait for its due time, or at the
// median a send ran late by more than half the median latency the phase
// reports, so the number would describe the generator rather than the
// program.  (The tail of the lateness cannot be the test: on a shared
// virtual machine the kernel wakes any sleeper ~0.5 ms late one time in
// a hundred, whatever it is waiting for.)  It returns the generator's
// p99 lateness.
func checkLateness(e *env, p *phase, p50us float64) (float64, error) {
	late := sortedCopy(p.lateness())
	l50, l99 := percentile(late, 50), percentile(late, 99)
	e.log("%s: generator lateness p50 %.2fus, p99 %.2fus over the %d of %d sends it waited for", p.name, l50, l99, len(late), len(p.obs))
	if len(p.obs) < minLatenessSample {
		return l99, nil
	}
	if len(late) == 0 {
		return 0, fmt.Errorf("%s: the generator never waited for a due time: the offered rate is above capacity", p.name)
	}
	if l50 > p50us/2 {
		return 0, fmt.Errorf("%s: generator ran late by %.2fus at the median, more than half the p50 latency %.2fus it reports", p.name, l50, p50us)
	}
	return l99, nil
}
