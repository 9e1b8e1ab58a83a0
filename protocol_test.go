package adsketch_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"adsketch"
	"adsketch/lab"
)

// jsonRoundTrip pushes a Request through the wire encoding and back —
// what a client and adsserver do to every query.
func jsonRoundTrip(t *testing.T, req adsketch.Request) adsketch.Request {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var out adsketch.Request
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func doWire(t *testing.T, eng *adsketch.Engine, req adsketch.Request) adsketch.Response {
	t.Helper()
	resp, err := eng.Do(context.Background(), jsonRoundTrip(t, req))
	if err != nil {
		t.Fatalf("Do(%+v): %v", req, err)
	}
	// The Response must survive its own wire encoding bit-for-bit too
	// (encoding/json emits the shortest float64 form that round-trips).
	payload, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var out adsketch.Response
	if err := json.Unmarshal(payload, &out); err != nil {
		t.Fatal(err)
	}
	for i := range resp.Scores {
		if out.Scores[i] != resp.Scores[i] {
			t.Fatalf("score %d changed across response JSON round trip: %v vs %v", i, out.Scores[i], resp.Scores[i])
		}
	}
	return out
}

// Every query type, JSON encode -> decode -> evaluate, must equal the
// direct method / package-level call bit-for-bit.
func TestProtocolParityUniform(t *testing.T) {
	g, set, eng := buildEngine(t)
	c := lab.NewCentrality(set)
	nodes := []int32{0, 7, 123, 399}
	ctx := context.Background()

	t.Run("closeness", func(t *testing.T) {
		resp := doWire(t, eng, adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: nodes}})
		for i, v := range nodes {
			if want := c.Closeness(v); resp.Scores[i] != want {
				t.Errorf("node %d: %v, want %v", v, resp.Scores[i], want)
			}
		}
	})
	t.Run("harmonic", func(t *testing.T) {
		resp := doWire(t, eng, adsketch.Request{Harmonic: &adsketch.HarmonicQuery{Nodes: nodes}})
		for i, v := range nodes {
			if want := c.Harmonic(v); resp.Scores[i] != want {
				t.Errorf("node %d: %v, want %v", v, resp.Scores[i], want)
			}
		}
	})
	t.Run("neighborhood", func(t *testing.T) {
		resp := doWire(t, eng, adsketch.Request{Neighborhood: &adsketch.NeighborhoodQuery{Radius: 2.5, Nodes: nodes}})
		for i, v := range nodes {
			if want := adsketch.EstimateNeighborhoodHIP(set.SketchOf(v), 2.5); resp.Scores[i] != want {
				t.Errorf("node %d: %v, want %v", v, resp.Scores[i], want)
			}
		}
		unb := doWire(t, eng, adsketch.Request{Neighborhood: &adsketch.NeighborhoodQuery{Unbounded: true, Nodes: nodes}})
		for i, v := range nodes {
			if want := adsketch.EstimateNeighborhoodHIP(set.SketchOf(v), math.Inf(1)); unb.Scores[i] != want {
				t.Errorf("unbounded node %d: %v, want %v", v, unb.Scores[i], want)
			}
		}
	})
	t.Run("topk", func(t *testing.T) {
		for metric, want := range map[string][]adsketch.Ranked{
			adsketch.MetricCloseness: c.TopCloseness(10),
			adsketch.MetricHarmonic:  c.TopHarmonic(10),
		} {
			resp := doWire(t, eng, adsketch.Request{TopK: &adsketch.TopKQuery{Metric: metric, K: 10}})
			if len(resp.Ranking) != len(want) {
				t.Fatalf("%s: %d entries, want %d", metric, len(resp.Ranking), len(want))
			}
			for i := range want {
				if resp.Ranking[i] != want[i] {
					t.Errorf("%s[%d] = %+v, want %+v", metric, i, resp.Ranking[i], want[i])
				}
			}
		}
	})
	t.Run("centrality_kernel", func(t *testing.T) {
		kernels := map[string]func(float64) float64{
			adsketch.KernelNameThreshold:    adsketch.KernelThreshold(3),
			adsketch.KernelNameReachability: adsketch.KernelReachability,
			adsketch.KernelNameExponential:  adsketch.KernelExponential,
			adsketch.KernelNameHarmonic:     adsketch.KernelHarmonic,
			adsketch.KernelNameIdentity:     adsketch.KernelIdentity,
		}
		for name, alpha := range kernels {
			resp := doWire(t, eng, adsketch.Request{CentralityKernel: &adsketch.CentralityKernelQuery{
				Kernel: name, Radius: 3, Nodes: nodes,
			}})
			for i, v := range nodes {
				want := adsketch.EstimateCentrality(set.SketchOf(v), alpha, adsketch.UnitBeta)
				if resp.Scores[i] != want {
					t.Errorf("%s node %d: %v, want %v", name, v, resp.Scores[i], want)
				}
			}
		}
	})
	t.Run("jaccard", func(t *testing.T) {
		resp := doWire(t, eng, adsketch.Request{Jaccard: &adsketch.JaccardQuery{A: 0, RadiusA: 2, B: 7, RadiusB: 2}})
		want := adsketch.NeighborhoodJaccard(set.BottomK(0), 2, set.BottomK(7), 2)
		if resp.Value == nil || *resp.Value != want {
			t.Errorf("jaccard = %v, want %v", resp.Value, want)
		}
	})
	t.Run("influence", func(t *testing.T) {
		cover := doWire(t, eng, adsketch.Request{Influence: &adsketch.InfluenceQuery{Seeds: []int32{0, 50}, Radius: 2}})
		if want := adsketch.UnionNeighborhood(set, []int32{0, 50}, 2); cover.Value == nil || *cover.Value != want {
			t.Errorf("union coverage = %v, want %v", cover.Value, want)
		}
		greedy := doWire(t, eng, adsketch.Request{Influence: &adsketch.InfluenceQuery{NumSeeds: 3, Radius: 2}})
		seeds, wantCov := adsketch.GreedyInfluenceSeeds(set, nil, 3, 2)
		if greedy.Value == nil || *greedy.Value != wantCov || len(greedy.Seeds) != len(seeds) {
			t.Fatalf("greedy = %+v, want seeds %v coverage %v", greedy, seeds, wantCov)
		}
		for i := range seeds {
			if greedy.Seeds[i] != seeds[i] {
				t.Errorf("seed[%d] = %d, want %d", i, greedy.Seeds[i], seeds[i])
			}
		}
	})
	t.Run("distance_bound", func(t *testing.T) {
		resp := doWire(t, eng, adsketch.Request{DistanceBound: &adsketch.DistanceBoundQuery{A: 0, B: 200}})
		want := adsketch.DistanceUpperBound(set.BottomK(0), set.BottomK(200))
		if math.IsInf(want, 1) {
			if !resp.Unreachable || resp.Value != nil {
				t.Errorf("bound = %+v, want unreachable", resp)
			}
		} else if resp.Value == nil || *resp.Value != want {
			t.Errorf("bound = %v, want %v", resp.Value, want)
		}
	})
	t.Run("batch", func(t *testing.T) {
		resps, err := eng.DoBatch(ctx, []adsketch.Request{
			{ID: "a", Closeness: &adsketch.ClosenessQuery{Nodes: nodes}},
			{ID: "b", Closeness: &adsketch.ClosenessQuery{Nodes: []int32{-5}}}, // fails alone
			{ID: "c", Harmonic: &adsketch.HarmonicQuery{Nodes: nodes}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if resps[0].Error != "" || resps[2].Error != "" {
			t.Errorf("healthy batch items errored: %+v", resps)
		}
		if resps[1].Error == "" || resps[1].ID != "b" {
			t.Errorf("failing batch item: %+v", resps[1])
		}
	})
	_ = g
}

// The per-node protocol queries also serve weighted and approximate
// sets; the coordinated cross-sketch queries reject them with
// ErrUnsupportedQuery.
func TestProtocolOverAllSetKinds(t *testing.T) {
	g := adsketch.PreferentialAttachment(120, 3, 2)
	beta := make([]float64, 120)
	for i := range beta {
		beta[i] = 1 + float64(i%4)
	}
	weighted, err := adsketch.Build(g, adsketch.WithK(6), adsketch.WithSeed(1), adsketch.WithNodeWeights(beta))
	if err != nil {
		t.Fatal(err)
	}
	approx, err := lab.BuildApprox(g, 6, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for name, set := range map[string]adsketch.SketchSet{"weighted": weighted, "approx": approx} {
		eng, err := adsketch.NewEngine(set)
		if err != nil {
			t.Fatal(err)
		}
		resp := doWire(t, eng, adsketch.Request{Neighborhood: &adsketch.NeighborhoodQuery{Unbounded: true, Nodes: []int32{0, 1}}})
		for i, s := range resp.Scores {
			if want := adsketch.EstimateNeighborhoodHIP(set.SketchOf(int32(i)), math.Inf(1)); s != want {
				t.Errorf("%s node %d: %v, want %v", name, i, s, want)
			}
		}
		// The cross-sketch queries need uniform coordinated ranks: an
		// approximate set is bottom-k at full precision, and still refused.
		for _, req := range []adsketch.Request{
			{Jaccard: &adsketch.JaccardQuery{A: 0, RadiusA: 1, B: 1, RadiusB: 1}},
			{Influence: &adsketch.InfluenceQuery{NumSeeds: 2, Radius: 1}},
			{Influence: &adsketch.InfluenceQuery{Seeds: []int32{0}, Radius: 1}},
			{DistanceBound: &adsketch.DistanceBoundQuery{A: 0, B: 1}},
			{Sketch: &adsketch.SketchQuery{Node: 0}},
		} {
			q, _ := req.Query()
			if _, err := eng.Do(context.Background(), req); !errors.Is(err, adsketch.ErrUnsupportedQuery) {
				t.Errorf("%s %T error = %v, want ErrUnsupportedQuery", name, q, err)
			}
		}
	}
}

func TestProtocolValidation(t *testing.T) {
	_, _, eng := buildEngine(t)
	ctx := context.Background()
	bad := []adsketch.Request{
		{}, // no query
		{ // two queries
			Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0}},
			Harmonic:  &adsketch.HarmonicQuery{Nodes: []int32{0}},
		},
		{Neighborhood: &adsketch.NeighborhoodQuery{Radius: -1, Nodes: []int32{0}}},
		{Neighborhood: &adsketch.NeighborhoodQuery{Radius: math.NaN(), Nodes: []int32{0}}},
		{TopK: &adsketch.TopKQuery{Metric: "pagerank", K: 5}},
		{TopK: &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 0}},
		{CentralityKernel: &adsketch.CentralityKernelQuery{Kernel: "cubic", Nodes: []int32{0}}},
		{Jaccard: &adsketch.JaccardQuery{A: 0, RadiusA: -2, B: 1, RadiusB: 1}},
		{Influence: &adsketch.InfluenceQuery{Radius: 1}},                                            // neither seeds nor num_seeds
		{Influence: &adsketch.InfluenceQuery{Seeds: []int32{0}, NumSeeds: 2, Radius: 1}},            // both
		{Influence: &adsketch.InfluenceQuery{Seeds: []int32{0}, Candidates: []int32{1}, Radius: 1}}, // candidates without greedy
		{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{99999}}},                                // out of range
		{DistanceBound: &adsketch.DistanceBoundQuery{A: -1, B: 0}},
	}
	for i, req := range bad {
		if _, err := eng.Do(ctx, req); !errors.Is(err, adsketch.ErrBadRequest) {
			t.Errorf("bad request %d: error = %v, want ErrBadRequest", i, err)
		}
	}
}

func TestProtocolContextCancellation(t *testing.T) {
	_, _, eng := buildEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.DoBatch(ctx, []adsketch.Request{{TopK: &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 5}}}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled DoBatch error = %v, want context.Canceled", err)
	}
}
