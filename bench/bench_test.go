package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"adsketch"
)

// smallSizes is about a fiftieth of the full workloads.
var smallSizes = sizes{
	n: 400, sample: 40, reps: 3, coldOpens: 2,
	openRate: 1000, window: 40, ladder: 400, hops: 60, distN: 120,
}

// small returns the smoke-test sizes of one workload.  A 400-node graph
// ingests a window in a few milliseconds, so the in-process reader needs
// a far higher rate than the full workload's to see a few top-k answers
// before the writer is done.
func small(workload string) sizes {
	sz := smallSizes
	if workload == "ingest_serve" {
		sz.openRate = 20000
	}
	return sz
}

const smallSeconds = 0.6

// TestMain lets runAA's children be this test binary: with the marker
// set, the process is the benchmark command at smoke-test size.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_TEST_CHILD") == "1" {
		for i := range workloads {
			workloads[i].sz = small(workloads[i].name)
		}
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

func testEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv(t.TempDir(), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.cleanup)
	return e
}

// benchmarkJSON mirrors the BENCHMARK.json contract.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSON pins BENCHMARK.json to the tables the program
// prints from: names, units, directions, workloads, run length.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, program default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in JSON, %d in program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: JSON %q / program %q", i, b.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts: JSON %d+%d, program %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, d := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
			t.Errorf("end_to_end %d: JSON %+v, program %+v", i, j, d)
		}
		if j.Bound <= 0 || j.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", j.Name, j.Bound)
		}
		hasSetup = hasSetup || (j.Name == "setup_s" && j.Unit == "s" && j.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		j := b.PerLayer[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
			t.Errorf("per_layer %d: JSON %+v, program %+v", i, j, d)
		}
		if seen[d.name] {
			t.Errorf("duplicate metric %s", d.name)
		}
		seen[d.name] = true
	}
}

// runSmall runs one workload at smoke-test size and returns its parsed
// result line and everything it measured.
func runSmall(t *testing.T, e *env, name string, seed uint64, traced bool) (output, map[string]float64) {
	t.Helper()
	w := findWorkload(name)
	c := config{seed: seed, seconds: smallSeconds, sz: small(name)}
	if traced {
		c.tr = newTracer()
	}
	r := newResult()
	if err := w.run(e, c, r); err != nil {
		t.Fatalf("%s seed %d traced %v: %v", name, seed, traced, err)
	}
	line, err := render(e, c, r)
	if err != nil {
		t.Fatalf("%s seed %d traced %v: %v", name, seed, traced, err)
	}
	var out output
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, out.Correct, out.Attempted, out.Failed)
	}
	return out, r.metrics
}

// exactEndToEnd repeat to the last digit for one seed.
var exactEndToEnd = []string{"sketch_bytes_per_node", "closeness_nrmse", "neighborhood_nrmse"}

// exactCounters are the Go-API counts a later claim may rest on; each is
// listed with the workload whose traced run measures it.
var exactCounters = map[string][]string{
	"build_offline": {"core.build_entries", "distbuild.rounds", "distbuild.candidates", "wire.request_bytes", "engine.cache_misses"},
	"ingest_serve":  {"ingest.offers_per_edge", "ingest.accepts_per_offer", "ingest.frontier_max"},
}

// positiveLayers are the layer metrics only the named workload yields:
// each must come out above zero there.
var positiveLayers = map[string][]string{
	"build_offline": {
		"e2e.build_edges_per_s", "e2e.distbuild_edges_per_s", "e2e.cold_open_ms",
		"graph.parse_s", "core.build_s", "core.write_v3_s", "distbuild.step_s", "distbuild.p1_wall_s",
	},
	"serve_point": {
		"e2e.queries_per_s", "e2e.query_p50_us", "e2e.query_p99_us", "e2e.topk_p50_us",
		"bench.compile_s", "http.hop_binary_us", "http.self_us",
	},
	"serve_scatter": {
		"e2e.queries_per_s", "e2e.query_p50_us", "e2e.query_p99_us", "e2e.topk_p50_us",
		"bench.compile_s", "loadgen.late_p99_us", "http.hop_binary_us", "http.hop_json_us", "http.batch64_us",
		"http.server_requests", "cluster.scatter_inproc_us", "cluster.scatter_http_us", "cluster.fanout_mean",
		"cluster.shard_attempts", "wire.roundtrip_inproc_ns", "json.roundtrip_inproc_ns", "core.hip_lookup_ns",
	},
	"ingest_serve": {
		"e2e.ingest_edges_per_s", "e2e.publish_lag_ms", "e2e.query_p50_us", "e2e.query_p99_us", "e2e.topk_p50_us",
		"ingest.freeze_ms", "ingest.first_query_ms", "ingest.insert_us_mean", "catalog.swap_us",
	},
}

// TestSmoke runs all four workloads, untraced and traced, at about a
// fiftieth of their size: every metric of the right table is printed
// with its unit, end-to-end metrics are never zero, exact metrics and
// counters repeat for a seed, and another seed moves the ones that
// depend on the traffic.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds adsserver and starts servers")
	}
	e := testEnv(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			first, _ := runSmall(t, e, w.name, 1, false)
			if len(first.Metrics) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics printed, want %d", len(first.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				v, ok := first.Metrics[d.name]
				if !ok || v.Unit != d.unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", d.name, v, ok, d.unit)
				}
			}

			// The traced run measures the end-to-end metrics too, and
			// prints the other table.
			traced, again := runSmall(t, e, w.name, 1, true)
			_, other := runSmall(t, e, w.name, 2, true)
			for _, name := range exactEndToEnd {
				if first.Metrics[name].Value != again[name] {
					t.Errorf("%s differs between two runs of seed 1: %v vs %v", name, first.Metrics[name].Value, again[name])
				}
			}
			if again["closeness_nrmse"] == other["closeness_nrmse"] && again["neighborhood_nrmse"] == other["neighborhood_nrmse"] {
				t.Error("seeds 1 and 2 measured the same accuracy: the sample does not follow the seed")
			}
			if len(traced.Metrics) != len(perLayer) {
				t.Errorf("%d per-layer metrics printed, want %d", len(traced.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if v, ok := traced.Metrics[d.name]; !ok || v.Unit != d.unit || math.IsNaN(v.Value) {
					t.Errorf("%s = %+v (present %v), want a number in %s", d.name, v, ok, d.unit)
				}
			}
			for _, name := range append([]string{"bench.trace_overhead_ratio"}, positiveLayers[w.name]...) {
				if v := traced.Metrics[name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}

			switch w.name {
			case "serve_scatter":
				// 2*hops single requests (binary, JSON) and >= 10 frames of 64.
				if got, want := traced.Metrics["http.server_requests"].Value, float64(2*smallSizes.hops+10*64); got != want {
					t.Errorf("http.server_requests = %v, want %v", got, want)
				}
				if got := traced.Metrics["cluster.fanout_mean"].Value; got < 1 || got > 2 {
					t.Errorf("cluster.fanout_mean = %v over two shards", got)
				}
			case "ingest_serve":
				if again["ingest.offers_per_edge"] == other["ingest.offers_per_edge"] {
					t.Error("ingest.offers_per_edge is the same for seeds 1 and 2: the edge stream does not follow the seed")
				}
			}
			counters := exactCounters[w.name]
			if len(counters) == 0 {
				return
			}
			_, third := runSmall(t, e, w.name, 1, true)
			for _, name := range counters {
				if a, b := again[name], third[name]; a != b || !(a > 0) {
					t.Errorf("%s: %v then %v for one seed, want equal and positive", name, a, b)
				}
			}
		})
	}
}

// TestCommand drives the command line: usage errors, one real run with
// a span file, and the -aa table over re-executed children.
func TestCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("runs workloads")
	}
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "build_offline", "-trace", "2"},
		{"-workload", "build_offline", "-seconds", "0"},
		{"-no-such-flag"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}

	saved := make([]sizes, len(workloads))
	for i := range workloads {
		saved[i] = workloads[i].sz
		workloads[i].sz = small(workloads[i].name)
	}
	defer func() {
		for i := range workloads {
			workloads[i].sz = saved[i]
		}
	}()
	spans := t.TempDir() + "/spans.json"
	if code := run([]string{"--workload", "build_offline", "--seed", "5", "--seconds", "0.5", "--trace", "1", "-spans", spans}); code != 0 {
		t.Fatalf("traced build_offline exited %d", code)
	}
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var recorded []span
	if err := json.Unmarshal(data, &recorded); err != nil || len(recorded) == 0 {
		t.Fatalf("span file: %d spans, err %v", len(recorded), err)
	}
	if _, err := os.Stat(workParent); !os.IsNotExist(err) {
		t.Errorf("%s left behind: %v", workParent, err)
	}

	t.Setenv("BENCH_TEST_CHILD", "1")
	if code := run([]string{"-aa", "1", "-seconds", "0.4"}); code != 0 {
		t.Fatalf("-aa exited %d", code)
	}
}

// TestCorruptedAnswerTripsCheck flips one bit of one held-back response.
func TestCorruptedAnswerTripsCheck(t *testing.T) {
	g := adsketch.PreferentialAttachment(300, 3, 1)
	set, err := adsketch.Build(g, adsketch.WithK(8), adsketch.WithSeed(rankSeed))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := adsketch.NewEngine(set)
	if err != nil {
		t.Fatal(err)
	}
	ref := backendDo(eng)
	s := stream{seed: 9, mix: scatterTraffic, n: 300}
	p := closedLoop(nil, "check", s, 0, []doFunc{ref}, 50*time.Millisecond)
	if err := p.ok(); err != nil {
		t.Fatal(err)
	}
	if len(p.kept) < 2 {
		t.Fatalf("%d responses kept of %d", len(p.kept), p.attempted)
	}
	if err := checkKept(p, s, ref); err != nil {
		t.Fatalf("clean phase: %v", err)
	}
	for i := range p.kept {
		r := &p.kept[i].resp
		if len(r.Scores) > 0 {
			r.Scores[0] = math.Float64frombits(math.Float64bits(r.Scores[0]) ^ 1)
			break
		}
	}
	if err := checkKept(p, s, ref); err == nil || !strings.Contains(err.Error(), "differs") {
		t.Fatalf("corrupted score not caught: %v", err)
	}

	// A ranking off by one node, a failed request, an empty phase.
	a, b := p.kept[0].resp, p.kept[0].resp
	a.Ranking = []adsketch.Ranked{{Node: 1, Score: 2}}
	b.Ranking = []adsketch.Ranked{{Node: 2, Score: 2}}
	if sameResponse(&a, &b) {
		t.Error("rankings with different nodes compare equal")
	}
	boom := errors.New("boom")
	bad := closedLoop(nil, "bad", s, 0, []doFunc{func(*adsketch.Request) (adsketch.Response, error) {
		return adsketch.Response{}, boom
	}}, 5*time.Millisecond)
	if err := bad.ok(); bad.failed == 0 || bad.failed != bad.attempted || !errors.Is(bad.firstErr, boom) || err == nil {
		t.Errorf("failing backend: failed=%d attempted=%d err=%v", bad.failed, bad.attempted, err)
	}
	if err := (&phase{name: "empty"}).ok(); err == nil {
		t.Error("empty phase passes")
	}
}

// TestAccuracyCheck: exact answers pass with zero error, answers 40%
// off trip the bound.
func TestAccuracyCheck(t *testing.T) {
	g := adsketch.Grid(12, 12)
	exact := exactTruth(g, 4, 30)
	// A corner of a 12x12 grid sees itself and two neighbours at radius 1.
	dist := make(map[int32]int)
	for i, v := range exact.nodes {
		dist[v] = i
	}
	if i, ok := dist[0]; ok && exact.nbr[0][i] != 3 {
		t.Errorf("|N_1(corner)| = %v, want 3", exact.nbr[0][i])
	}
	answer := func(scale float64) doFunc {
		return func(req *adsketch.Request) (adsketch.Response, error) {
			var scores []float64
			switch {
			case req.Closeness != nil:
				for _, v := range req.Closeness.Nodes {
					scores = append(scores, scale*exact.closeness[dist[v]])
				}
			case req.Neighborhood != nil:
				r := int(req.Neighborhood.Radius) - 1
				for _, v := range req.Neighborhood.Nodes {
					scores = append(scores, scale*exact.nbr[r][dist[v]])
				}
			}
			return adsketch.Response{Scores: scores}, nil
		}
	}
	c, n, requests, err := exact.accuracy(answer(1), sketchK)
	if err != nil || c != 0 || n != 0 || requests != 4*2 {
		t.Errorf("exact answers: closeness %v neighborhood %v requests %d err %v", c, n, requests, err)
	}
	if _, _, _, err := exact.accuracy(answer(1.4), sketchK); err == nil {
		t.Error("answers 40% off pass the accuracy check")
	}
	if _, _, _, err := exact.accuracy(func(*adsketch.Request) (adsketch.Response, error) {
		return adsketch.Response{}, nil
	}, sketchK); err == nil {
		t.Error("empty answers pass the accuracy check")
	}
	if got := nrmse([]float64{1.1, 5, 0.9}, []float64{1, 0, 1}); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("nrmse = %v, want 0.1 (zero exact values skipped)", got)
	}
}

func TestSegmentPercentiles(t *testing.T) {
	// Ten segments of 1000: nine steady, one with a burst in its tail.
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = 100 + float64(i%100)
		if i >= 3000 && i < 3150 {
			xs[i] = 50000
		}
	}
	p99 := segmentPercentiles(xs, 99, 1000)
	if len(p99) != 10 || p99[0] != 198 || p99[3] != 50000 || median(p99) != 198 {
		t.Errorf("segment p99s = %v, want 198 everywhere but 50000 in segment 3", p99)
	}
	if whole := percentile(sortedCopy(xs), 99); whole != 50000 {
		t.Errorf("whole-run p99 = %v: the burst should own it", whole)
	}
	// Too few samples for two segments: the plain percentile.
	if got := segmentPercentiles([]float64{5, 1, 4, 2, 3}, 50, 1000); len(got) != 1 || got[0] != 3 {
		t.Errorf("p50 of five samples = %v, want [3]", got)
	}
	if got := segmentPercentiles(nil, 50, 1000); got != nil {
		t.Errorf("empty sample: %v", got)
	}
	// 25000 samples still make 10 segments, not 25; a median takes
	// segments of 100.
	if got := segmentPercentiles(make([]float64, 25000), 99, 1000); len(got) != maxSegments {
		t.Errorf("%d segments", len(got))
	}
	if got := segmentPercentiles(make([]float64, 450), 50, 100); len(got) != 4 {
		t.Errorf("%d segments of 450 samples at 100 each, want 4", len(got))
	}
	if got := percentile([]float64{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("nearest-rank p50 of 1..4 = %v, want 2", got)
	}
}

// TestColumnVerdict: the bound rule of the -aa table.
func TestColumnVerdict(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cells   []aaCell
		bound   float64
		verdict string
	}{
		{"exact", []aaCell{{}, {}}, 0.05, "keep"},
		{"steady", []aaCell{{spread: [2]float64{0.02, 0.031}, gap: 0.01}}, 0.10, "keep"},
		{"gap", []aaCell{{spread: [2]float64{0.01, 0.01}, gap: 0.06}}, 0.12, "keep"},
		{"tight", []aaCell{{spread: [2]float64{0.1, 0.2}, gap: 0.01}, {}}, 0.25, "keep, tight"},
		{"spread", []aaCell{{}, {spread: [2]float64{0.1, 0.26}}}, 0.78, "demote"},
		{"drift", []aaCell{{gap: 0.13}}, 0.26, "demote"},
		{"setup_s", []aaCell{{spread: [2]float64{0.4, 0.3}, gap: 0.04}}, 0.25, "keep: required, widest bound"},
	} {
		bound, verdict := columnVerdict(tc.name, tc.cells)
		if math.Abs(bound-tc.bound) > 1e-9 || verdict != tc.verdict {
			t.Errorf("%s: bound %v verdict %q, want %v %q", tc.name, bound, verdict, tc.bound, tc.verdict)
		}
	}
}

// TestQuartiles pins the spread statistic to Python's
// statistics.quantiles(xs, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if q1, _, q3 := quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("one value: %v %v", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if median(nil) != 0 || mean(nil) != 0 || mean([]float64{1, 2, 6}) != 3 {
		t.Error("median/mean edge cases")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1, Request: -1},
		{Name: "child", Start: 10, End: 40, Parent: 0, Request: -1},
		{Name: "child", Start: 30, End: 60, Parent: 0, Request: -1},  // overlaps the first: parallel workers
		{Name: "child", Start: 90, End: 120, Parent: 0, Request: -1}, // runs past its parent
		{Name: "grandchild", Start: 12, End: 20, Parent: 1, Request: -1},
		{Name: "root", Start: 200, End: 250, Parent: -1, Request: -1}, // no children
	}
	got := selfTimes(spans)
	// Children cover [10,60] and [90,100] of the first root: self 40.
	if r := got["root"]; r.Count != 2 || r.Total != 150 || r.Self != 40+50 {
		t.Errorf("root: %+v", r)
	}
	// First child: 30 long, grandchild covers 8.
	if c := got["child"]; c.Count != 3 || c.Total != 90 || c.Self != 22+30+30 {
		t.Errorf("child: %+v", c)
	}
	if g := got["grandchild"]; g.Self != 8 || len(g.Durs) != 1 {
		t.Errorf("grandchild: %+v", g)
	}

	var off *tracer
	if id := off.begin("x", -1, -1); id != -1 {
		t.Errorf("nil tracer begin = %d", id)
	}
	off.end(-1)
	if off.snapshot() != nil {
		t.Error("nil tracer has spans")
	}
	tr := newTracer()
	root := tr.begin("a", -1, 7)
	kid := tr.begin("b", root, 7)
	tr.end(kid)
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[1].Request != 7 || s[0].End < s[1].End || s[1].End < s[1].Start {
		t.Errorf("recorded spans: %+v", s)
	}
}

func TestStream(t *testing.T) {
	s := stream{seed: 3, mix: pointTraffic, n: 1000}
	counts := map[string]int{}
	for i := 0; i < 20000; i++ {
		a, b := s.at(i), s.at(i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("request %d is not a pure function of (seed, index)", i)
		}
		switch {
		case a.TopK != nil:
			counts["topk"]++
			if a.TopK.K != topK {
				t.Fatalf("top-k K = %d", a.TopK.K)
			}
		case a.Neighborhood != nil:
			counts["nbr"]++
			if len(a.Neighborhood.Nodes) != 1 || a.Neighborhood.Radius != neighborhoodRadius {
				t.Fatalf("neighborhood request %+v", a.Neighborhood)
			}
		case len(a.Closeness.Nodes) == 16:
			counts["close16"]++
		case len(a.Closeness.Nodes) == 1:
			counts["close1"]++
			if v := a.Closeness.Nodes[0]; v < 0 || v >= 1000 {
				t.Fatalf("node %d outside [0, 1000)", v)
			}
		default:
			t.Fatalf("unexpected request %+v", a)
		}
	}
	for kind, want := range map[string]float64{"close1": 0.70, "nbr": 0.20, "close16": 0.08, "topk": 0.02} {
		if got := float64(counts[kind]) / 20000; math.Abs(got-want) > 0.01 {
			t.Errorf("%s share %.3f, want %.2f", kind, got, want)
		}
	}
	if reflect.DeepEqual(s.at(5), stream{seed: 4, mix: pointTraffic, n: 1000}.at(5)) {
		t.Error("seeds 3 and 4 give the same request 5")
	}
	for _, m := range [][]mixEntry{pointTraffic, scatterTraffic, readerMix, pointMix} {
		sum := 0
		for _, e := range m {
			sum += e.weight
		}
		if sum != 1000 {
			t.Errorf("mix weights sum to %d", sum)
		}
	}
}

// TestOpenLoopScheduler: sends follow the schedule, not the answers; a
// stall is caught up without skipping and charged from the due times.
// Every assertion is one-sided in time — something that cannot happen
// early — so a pause of the machine cannot fail it.
func TestOpenLoopScheduler(t *testing.T) {
	s := stream{seed: 1, mix: pointMix, n: 10}
	const (
		rate    = 1000
		count   = 200
		stalled = 20 // the request whose answer takes stall
		stall   = 30 * time.Millisecond
	)
	var calls int
	slow := func(req *adsketch.Request) (adsketch.Response, error) {
		if calls++; calls == stalled+1 {
			time.Sleep(stall) // 30 due times pass meanwhile
		}
		return adsketch.Response{}, nil
	}
	p := openLoop(nil, "open", s, 0, []doFunc{slow}, rate, count*time.Second/rate, nil)
	if p.attempted != count || p.failed != 0 || len(p.obs) != count {
		t.Fatalf("attempted %d failed %d answered %d, want %d 0 %d", p.attempted, p.failed, len(p.obs), count, count)
	}
	waited := 0
	for i, o := range p.obs {
		if o.idx != i {
			t.Fatalf("obs %d has index %d: a request was skipped or reordered", i, o.idx)
		}
		if o.late >= 0 {
			waited++
		} else if o.late != -1 {
			t.Errorf("request %d lateness %v, want -1 or a wait overshoot", i, o.late)
		}
	}
	if waited == 0 {
		t.Error("no send ever waited for its due time")
	}
	// The last request is not sent before it is due.
	if min := (count - 1) * time.Second / rate; p.wall < min {
		t.Errorf("wall %v: the schedule alone takes %v", p.wall, min)
	}
	// Request i was due i-stalled ms into the stall: it is sent in
	// catch-up, without a wait, and charged the rest of the stall.
	for i := stalled; i < stalled+25; i++ {
		o := p.obs[i]
		if want := stall - time.Duration(i-stalled)*time.Second/rate; time.Duration(o.lat) < want {
			t.Errorf("request %d latency %v, want >= %v from its due time", i, time.Duration(o.lat), want)
		}
		if i > stalled && o.late != -1 {
			t.Errorf("request %d lateness %v, want -1 (sent in catch-up)", i, o.late)
		}
	}

	e := &env{log: t.Logf}
	if _, err := checkLateness(e, p, 1e9); err != nil {
		t.Errorf("healthy generator rejected: %v", err)
	}
	late := &phase{name: "late"}
	for i := 0; i < minLatenessSample; i++ {
		late.obs = append(late.obs, obs{idx: i, late: 60e3})
	}
	if l99, err := checkLateness(e, late, 200); err != nil || l99 != 60 {
		t.Errorf("60us late at a p50 of 200us: p99 %v err %v", l99, err)
	}
	if _, err := checkLateness(e, late, 100); err == nil {
		t.Error("generator later than half the latency it reports passes")
	}
	saturated := &phase{name: "saturated"}
	for i := 0; i < minLatenessSample; i++ {
		saturated.obs = append(saturated.obs, obs{idx: i, late: -1})
	}
	if _, err := checkLateness(e, saturated, 100); err == nil {
		t.Error("generator that never waited passes")
	}
	if _, err := checkLateness(e, &phase{name: "short", obs: []obs{{late: -1}}}, 100); err != nil {
		t.Errorf("phase too short to judge rejected: %v", err)
	}

	// Stop channel: an open loop without a count ends when told to.
	stop := make(chan struct{})
	done := make(chan *phase)
	go func() { done <- openLoop(nil, "until", s, 0, []doFunc{backendOK}, rate, 0, stop) }()
	time.Sleep(5 * time.Millisecond)
	close(stop)
	if p := <-done; p.attempted == 0 || p.failed != 0 {
		t.Errorf("open loop stopped by channel: attempted %d failed %d", p.attempted, p.failed)
	}
}

func backendOK(*adsketch.Request) (adsketch.Response, error) { return adsketch.Response{}, nil }

func TestLatencyLimit(t *testing.T) {
	var l clientLog
	req := adsketch.Request{TopK: &adsketch.TopKQuery{}}
	l.record(nil, backendOK, 64, &req, time.Now().Add(-requestTimeout-time.Second), -1)
	if l.failed != 1 || l.firstErr == nil || len(l.obs) != 0 {
		t.Errorf("request over the limit: failed=%d obs=%d err=%v", l.failed, len(l.obs), l.firstErr)
	}
	l.record(nil, backendOK, 128, &req, time.Now(), -1)
	if l.attempted != 2 || len(l.obs) != 1 || !l.obs[0].topk || len(l.kept) != 1 {
		t.Errorf("attempted=%d obs=%+v kept=%d", l.attempted, l.obs, len(l.kept))
	}
}
