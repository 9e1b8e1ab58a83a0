package adsketch_test

import (
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"adsketch"
	"adsketch/internal/core"
	"adsketch/lab"
)

func TestFacadeQuickstart(t *testing.T) {
	g := adsketch.PreferentialAttachment(500, 3, 1)
	set, err := adsketch.Build(g, adsketch.WithK(16), adsketch.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if set.NumNodes() != 500 {
		t.Fatalf("NumNodes = %d", set.NumNodes())
	}
	c := lab.NewCentrality(set)
	n3 := c.NeighborhoodSize(0, 3)
	if n3 < 10 || n3 > 600 {
		t.Errorf("n_3(0) = %g, implausible", n3)
	}
	if cl := c.Closeness(0); cl <= 0 {
		t.Errorf("closeness = %g", cl)
	}
}

// TestFacadeFlavorsAndAlgorithms builds the one flavor Build has,
// bottom-k, with each construction: Algorithm 1 (Build), and the
// (1+ε)-approximate rounds and the Section 3 DP, which lab holds (as it
// does the k-mins and k-partition flavors).
func TestFacadeFlavorsAndAlgorithms(t *testing.T) {
	g := adsketch.Grid(6, 6)
	for name, build := range map[string]func() (*adsketch.Set, error){
		"PrunedDijkstra": func() (*adsketch.Set, error) { return adsketch.Build(g, adsketch.WithK(4), adsketch.WithSeed(3)) },
		"approximate":    func() (*adsketch.Set, error) { return lab.BuildApprox(g, 4, 3, 0.1) },
		"DP":             func() (*adsketch.Set, error) { return lab.BuildDP(g, 4, 3, 0) },
	} {
		set, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := adsketch.EstimateNeighborhoodHIP(set.SketchOf(0), 100)
		if got < 5 || got > 150 {
			t.Errorf("%s: reachability estimate %g", name, got)
		}
	}
}

func TestFacadeEstimateQAndKernels(t *testing.T) {
	g := adsketch.Path(30)
	set, err := adsketch.Build(g, adsketch.WithK(8), adsketch.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	s := set.SketchOf(0)
	sumDist := adsketch.EstimateQ(s, func(_ int32, d float64) float64 { return d })
	viaKernel := adsketch.EstimateCentrality(s, adsketch.KernelIdentity, adsketch.UnitBeta)
	if math.Abs(sumDist-viaKernel) > 1e-9 {
		t.Errorf("EstimateQ %g != kernel path %g", sumDist, viaKernel)
	}
}

func TestFacadeDistinctCounters(t *testing.T) {
	var counters = map[string]lab.DistinctCounter{
		"hip-hll":  lab.NewHIPDistinct(64, 5),
		"bottom-k": lab.NewBottomKDistinct(64, 5),
	}
	for name, c := range counters {
		for id := int64(0); id < 10000; id++ {
			c.Add(id)
			c.Add(id)
		}
		got := c.Estimate()
		if math.Abs(got-10000)/10000 > 0.35 {
			t.Errorf("%s: estimate %g for 10000 distinct", name, got)
		}
	}
	h := lab.NewHyperLogLog(64, 5)
	for id := int64(0); id < 10000; id++ {
		h.Add(id)
	}
	if got := h.Estimate(); math.Abs(got-10000)/10000 > 0.5 {
		t.Errorf("HLL estimate %g", got)
	}
}

func TestFacadeWeighted(t *testing.T) {
	g := adsketch.Cycle(50)
	beta := make([]float64, 50)
	for i := range beta {
		beta[i] = 2
	}
	set, err := adsketch.Build(g, adsketch.WithK(8), adsketch.WithSeed(7),
		adsketch.WithNodeWeights(beta))
	if err != nil {
		t.Fatal(err)
	}
	ws, ok := set.SketchOf(0).(*core.WeightedADS)
	if !ok {
		t.Fatalf("weighted build holds %T sketches", set.SketchOf(0))
	}
	// Total weight within the whole cycle is 100.
	got := ws.EstimateNeighborhoodWeight(100)
	if math.Abs(got-100)/100 > 0.6 {
		t.Errorf("weighted reachability = %g, want ~100", got)
	}
	// The shared Sketch interface reports the same weighted estimate.
	if via := set.SketchOf(0).EstimateNeighborhood(100); via != got {
		t.Errorf("SketchOf path %g != weighted path %g", via, got)
	}
}

func TestFacadeANF(t *testing.T) {
	g := adsketch.Grid(10, 10)
	res, err := lab.NeighborhoodFunction(g, lab.ANFOptions{K: 32, Seed: 4, Readout: lab.ANFHIP})
	if err != nil {
		t.Fatal(err)
	}
	plateau := res.NF[len(res.NF)-1]
	if math.Abs(plateau-10000)/10000 > 0.25 {
		t.Errorf("plateau %g, want ~10000 ordered pairs", plateau)
	}
	ed := lab.EffectiveDiameter(res.NF, 0.9)
	if ed < 5 || ed > 18 {
		t.Errorf("effective diameter %g for 10x10 grid", ed)
	}
}

func TestFacadeEdgeListRoundTrip(t *testing.T) {
	g := adsketch.GNP(40, 0.1, false, 2)
	var sb strings.Builder
	if err := adsketch.WriteEdgeList(&sb, g); err != nil {
		t.Fatal(err)
	}
	g2, err := adsketch.ReadEdgeList(strings.NewReader(sb.String()), false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Error("round trip mismatch")
	}
}

func TestFacadeGraphBuilder(t *testing.T) {
	b := adsketch.NewGraphBuilder(3, true)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(1, 2, 2)
	g := b.Build()
	set, err := adsketch.Build(g, adsketch.WithK(4), adsketch.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 reaches all three nodes.
	if got := adsketch.EstimateNeighborhoodHIP(set.SketchOf(0), 10); got != 3 {
		t.Errorf("reachable = %g, want exactly 3 (n<=k)", got)
	}
}

func TestFacadeSerialization(t *testing.T) {
	g := adsketch.GNP(80, 0.06, false, 12)
	set, err := adsketch.Build(g, adsketch.WithK(6), adsketch.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if _, err := set.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := adsketch.ReadSketchSet(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		a := adsketch.EstimateNeighborhoodHIP(set.SketchOf(v), 3)
		b := adsketch.EstimateNeighborhoodHIP(got.SketchOf(v), 3)
		if a != b {
			t.Fatalf("node %d: estimates differ after round trip: %g vs %g", v, a, b)
		}
	}
	// A version-2 file of an earlier release is refused: adsconvert
	// rewrites it.
	f, err := os.Open("internal/legacy/testdata/uniform_v2_k8.ads")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := adsketch.ReadSketchSet(f); err == nil || !strings.Contains(err.Error(), "adsconvert") {
		t.Errorf("v2 fixture: %v, want a refusal naming adsconvert", err)
	}
}

func TestFacadeInfluence(t *testing.T) {
	g := adsketch.PreferentialAttachment(300, 3, 8)
	set, err := adsketch.Build(g, adsketch.WithK(16), adsketch.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	single := adsketch.UnionNeighborhood(set, []int32{0}, 2)
	pair := adsketch.UnionNeighborhood(set, []int32{0, 100}, 2)
	if pair < single {
		t.Errorf("union coverage decreased when adding a seed: %g -> %g", single, pair)
	}
	seeds, cov := adsketch.GreedyInfluenceSeeds(set, nil, 2, 2)
	if len(seeds) != 2 || cov <= 0 {
		t.Errorf("greedy seeds = %v coverage %g", seeds, cov)
	}
}

func TestFacadeApprox(t *testing.T) {
	g := adsketch.WithRandomWeights(adsketch.GNP(80, 0.06, false, 31), 1, 5, 32)
	set, err := lab.BuildApprox(g, 4, 9, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if p := set.Params(); p.Kind != core.KindApprox || p.Eps != 0.25 || set.K() != 4 {
		t.Errorf("accessors: %+v", p)
	}
	est := adsketch.EstimateNeighborhoodHIP(set.SketchOf(0), math.Inf(1))
	if est <= 0 {
		t.Errorf("approx estimate %g", est)
	}
}

func TestFacadeHIPIndexAndDistanceBound(t *testing.T) {
	g := adsketch.Grid(8, 8)
	set, err := adsketch.Build(g, adsketch.WithK(8), adsketch.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	idx := adsketch.NewHIPIndex(set.SketchOf(0))
	if got, want := idx.Neighborhood(2), adsketch.EstimateNeighborhoodHIP(set.SketchOf(0), 2); got != want {
		t.Errorf("index %g vs direct %g", got, want)
	}
	// Undirected graph: forward sketches both ways bound the distance.
	bound := adsketch.DistanceUpperBound(set.BottomK(0), set.BottomK(63))
	if bound < 14 { // true distance corner-to-corner = 14
		t.Errorf("bound %g below true distance 14", bound)
	}
}

func TestFacadeHarmonicFromBalls(t *testing.T) {
	g := adsketch.Cycle(40)
	res, err := lab.NeighborhoodFunction(g, lab.ANFOptions{
		K: 32, Seed: 2, Readout: lab.ANFHIP, KeepBalls: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := lab.HarmonicFromBalls(res)
	if len(h) != 40 {
		t.Fatalf("got %d centralities", len(h))
	}
	// All cycle nodes are symmetric; estimates should cluster.
	var lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range h {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if hi > 3*lo {
		t.Errorf("symmetric graph harmonic spread too wide: [%g, %g]", lo, hi)
	}
}

// Construction state must grow with the entries a node actually holds,
// not be preallocated as n·k slots: 200,000 isolated nodes hold one entry
// each, whatever k is (n·k slots of 16 bytes would be 205 MB here).
func TestBuildIsolatedNodesMemory(t *testing.T) {
	g := adsketch.NewGraphBuilder(200000, false).Build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	set, err := adsketch.Build(g, adsketch.WithK(64))
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := set.TotalEntries(); got != 200000 {
		t.Fatalf("TotalEntries = %d, want 200000", got)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 64 {
		t.Errorf("Build of 200,000 isolated nodes at k=64 allocated %.1f MB, want < 64", mb)
	}
}

// The default build's object count is pinned at what the per-node sorted
// lists it replaced cost (22,060 allocations for this graph at commit
// 68471e5, PR 17); the threshold-head kernel lands near 10,000.
func TestBuildAllocsPinned(t *testing.T) {
	g := adsketch.PreferentialAttachment(2000, 4, 7)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := adsketch.Build(g, adsketch.WithK(16)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 22060 {
		t.Errorf("default Build allocated %.0f objects, more than the 22,060 it did before the threshold-head kernel", allocs)
	}
}
