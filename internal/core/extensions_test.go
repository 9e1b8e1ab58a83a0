package core

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"adsketch/internal/graph"
	"adsketch/internal/stats"
)

// --- serialization ---

// TestEncodeRoundTripAllFlavors round-trips the one flavor a set holds,
// bottom-k, at full precision and base 2.  (lab reproduces k-mins and
// k-partition, which no set holds.)
func TestEncodeRoundTripAllFlavors(t *testing.T) {
	g := graph.GNP(120, 0.05, false, 31)
	for _, baseB := range []float64{0, 2} {
		o := Options{K: 5, Seed: 17, BaseB: baseB}
		set, err := BuildSet(g, o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := set.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSketchSet(&buf)
		if err != nil {
			t.Fatalf("baseB=%g: %v", baseB, err)
		}
		if got.Params() != set.Params() {
			t.Fatalf("options changed: %+v vs %+v", got.Params(), set.Params())
		}
		for v := int32(0); int(v) < g.NumNodes(); v++ {
			equalSketches(t, fmt.Sprintf("roundtrip b=%g node %d", baseB, v),
				set.Sketch(v), got.Sketch(v))
		}
	}
}

// The stream reader must refuse damaged input of the format it reads, the
// version-3 bytes WriteTo emits.  (internal/legacy's test of this name has
// a version-2 file of an earlier release.)
func TestEncodeDetectsCorruption(t *testing.T) {
	g := graph.Path(20)
	set, err := BuildSet(g, Options{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		data      []byte
		firstNode int // where the first entry of the first sketch — its owner — is named
	}{
		"v3": {v3Bytes(t, set), int(splitV3(t, v3Bytes(t, set)).nodesAt)},
	} {
		data := tc.data
		if _, err := ReadSketchSet(bytes.NewReader(data)); err != nil {
			t.Fatalf("%s: intact file refused: %v", name, err)
		}
		// Wrong magic.
		bad := append([]byte("NOPE"), data[4:]...)
		if _, err := ReadSketchSet(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: bad magic accepted", name)
		}
		// Wrong version — and version 1, which is no longer read.
		for _, v := range []byte{99, 1} {
			bad = append([]byte(nil), data...)
			bad[4] = v
			if _, err := ReadSketchSet(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "want 3") {
				t.Errorf("%s: version %d: got %v, want the unsupported-version error", name, v, err)
			}
		}
		// Truncated.
		if _, err := ReadSketchSet(bytes.NewReader(data[:len(data)/2])); err == nil {
			t.Errorf("%s: truncated file accepted", name)
		}
		// An entry renamed: the per-sketch validation catches it.
		bad = append([]byte(nil), data...)
		bad[tc.firstNode] ^= 1
		if _, err := ReadSketchSet(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "corrupt sketch file") {
			t.Errorf("%s: renamed entry: got %v, want a corrupt-file error", name, err)
		}
	}
}

func TestEncodeEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0, false).Build()
	set, err := BuildSet(g, Options{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := set.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSketchSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 0 {
		t.Error("empty set round trip")
	}
}

// --- similarity / influence ---

func TestMinHashEntriesWithin(t *testing.T) {
	es := streamADS(4, 100, optionsForTest().Source()).MinHashEntriesWithin(50)
	if len(es) != 4 {
		t.Fatalf("got %d entries", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i].Rank < es[i-1].Rank {
			t.Fatal("not rank-sorted")
		}
		if es[i].Dist > 50 {
			t.Fatal("entry outside neighborhood")
		}
	}
}

func optionsForTest() Options { return Options{K: 4, Seed: 99} }

func TestNeighborhoodJaccardIdenticalAndDisjoint(t *testing.T) {
	// Two nodes of a complete graph share their d=1 neighborhood exactly.
	g := graph.Complete(40)
	set, err := BuildSet(g, Options{K: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if j := NeighborhoodJaccard(set.BottomK(0), 1, set.BottomK(1), 1); j != 1 {
		t.Errorf("complete-graph Jaccard = %g, want 1", j)
	}
	// Two components: disjoint neighborhoods.
	b := graph.NewBuilder(20, false)
	for i := int32(0); i < 9; i++ {
		b.AddEdge(i, i+1)
		b.AddEdge(i+10, i+11)
	}
	g2 := b.Build()
	set2, err := BuildSet(g2, Options{K: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if j := NeighborhoodJaccard(set2.BottomK(0), 100, set2.BottomK(10), 100); j != 0 {
		t.Errorf("cross-component Jaccard = %g, want 0", j)
	}
}

func TestNeighborhoodJaccardEstimatesOverlap(t *testing.T) {
	// Path graph: N_10(20) and N_10(26) overlap on nodes 16..30, |∩|=15,
	// |∪|=27 -> J = 15/27 ~ 0.556.
	g := graph.Path(60)
	var acc stats.Accum
	for run := 0; run < 200; run++ {
		set, err := BuildSet(g, Options{K: 12, Seed: uint64(run) + 50})
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(NeighborhoodJaccard(set.BottomK(20), 10, set.BottomK(26), 10))
	}
	want := 15.0 / 27.0
	if math.Abs(acc.Mean()-want) > 0.06 {
		t.Errorf("mean Jaccard = %g, want ~%g", acc.Mean(), want)
	}
}

func TestNeighborhoodJaccardPanicsOnMismatchedK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NeighborhoodJaccard(adsOf(0, 2, nil), 1, adsOf(1, 3, nil), 1)
}

func TestUnionNeighborhoodEstimate(t *testing.T) {
	// Two far-apart path nodes: union of their d=5 balls = 11 + 11 = 22.
	g := graph.Path(100)
	acc := stats.NewErrAccum(22)
	for run := 0; run < 200; run++ {
		set, err := BuildSet(g, Options{K: 8, Seed: uint64(run) + 900})
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(UnionNeighborhoodEstimate(set, []int32{20, 70}, 5))
	}
	if bias := acc.Bias(); math.Abs(bias) > 0.07 {
		t.Errorf("union estimate bias = %+.3f", bias)
	}
	set, _ := BuildSet(g, Options{K: 8, Seed: 1})
	if got := UnionNeighborhoodEstimate(set, nil, 5); got != 0 {
		t.Errorf("empty seed set estimate = %g", got)
	}
}

func TestGreedyInfluenceSeeds(t *testing.T) {
	// Two stars joined by a long path: the two star centers are the
	// obvious 2-seed choice for d=1.
	b := graph.NewBuilder(62, false)
	for i := int32(1); i <= 20; i++ {
		b.AddEdge(0, i) // star A, center 0
	}
	for i := int32(22); i <= 41; i++ {
		b.AddEdge(21, i) // star B, center 21
	}
	// Path bridging the two centers through nodes 42..61.
	prev := int32(0)
	for i := int32(42); i < 62; i++ {
		b.AddEdge(prev, i)
		prev = i
	}
	b.AddEdge(prev, 21)
	g := b.Build()
	set, err := BuildSet(g, Options{K: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	seeds, est := GreedyInfluenceSeeds(set, nil, 2, 1)
	if len(seeds) != 2 {
		t.Fatalf("seeds = %v", seeds)
	}
	found := map[int32]bool{seeds[0]: true, seeds[1]: true}
	if !found[0] || !found[21] {
		t.Errorf("greedy picked %v, want the two star centers {0, 21}", seeds)
	}
	if est < 30 || est > 60 {
		t.Errorf("estimated union coverage %g, want ~44", est)
	}
}

// --- parallel builder ---

func TestParallelBuilderMatchesSequential(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp":  graph.GNP(150, 0.04, false, 77),
		"wba":  graph.WithRandomWeights(graph.PreferentialAttachment(120, 3, 78), 1, 4, 79),
		"grid": graph.Grid(9, 9),
	}
	for name, g := range graphs {
		for _, baseB := range []float64{0, 2} {
			o := Options{K: 4, Seed: 11, BaseB: baseB}
			ref, err := BuildSetParallel(g, o, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BuildSetParallel(g, o, 3)
			if err != nil {
				t.Fatal(err)
			}
			for v := int32(0); int(v) < g.NumNodes(); v++ {
				label := fmt.Sprintf("parallel %s/b=%g/node %d", name, baseB, v)
				equalSketches(t, label, ref.Sketch(v), got.Sketch(v))
			}
		}
	}
}

// TestParallelBuilderBatchSizes pins what the batch schedule costs on the
// benchmark's graph — PA(10000,5), graph seed 1, k=16, rank seed 42: the
// offers its stale thresholds collect against the entries that survive
// (TestBenchmarkFrameBytes' count), and the number of batches.  The counts
// depend on the batch rule alone, so they are the same for every worker
// count, and a change in them is a change of the schedule.
func TestParallelBuilderBatchSizes(t *testing.T) {
	g := graph.PreferentialAttachment(10000, 5, 1)
	cands, ranks := runSpec{k: 16, rank: (Options{K: 16, Seed: 42}).rankFn()}.rankOrder(g.NumNodes())
	batches := 0
	for start := 0; start < len(cands); start = batchEnd(cands, ranks, 16, start) {
		batches++
	}
	if batches != 27 {
		t.Errorf("%d batches, want 27", batches)
	}
	for _, workers := range []int{2, 3} {
		ps, collected := runHops(g.Transpose(), cands, ranks, 16, workers)
		applied := len(ps.keys)
		if collected != 1441592 || applied != 1272677 {
			t.Errorf("workers=%d: %d offers collected for %d applied, want 1441592 for 1272677", workers, collected, applied)
		}
	}
}

// TestParallelBuilderAllocBound pins what Algorithm 1 allocates at one
// worker on the benchmark's graph, PA(10000,5) at k=16: the thresholds,
// heads of packed keys, one shared tail, one key per entry and the frame's
// columns — 34.5 MB when pinned.
func TestParallelBuilderAllocBound(t *testing.T) {
	g := graph.PreferentialAttachment(10000, 5, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	set, err := BuildSetParallel(g, Options{K: 16, Seed: 42}, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("the build allocated %.1f MB", got)
	if got > 40 {
		t.Errorf("the build allocated %.1f MB, want at most 40", got)
	}
	if set.TotalEntries() != 1272677 {
		t.Errorf("%d entries, want 1272677", set.TotalEntries())
	}
}

// TestBatchEnd checks the batch rule on its own: the batches tile the
// candidates, the first is the first k, a batch grows by a quarter of what
// precedes it, and no equal-rank group straddles a boundary.
func TestBatchEnd(t *testing.T) {
	for _, baseB := range []float64{0, 2} {
		for _, n := range []int{0, 1, 5, 16, 17, 1000} {
			for _, k := range []int{1, 4, 16} {
				cands, ranks := runSpec{k: k, rank: (Options{K: k, Seed: 7, BaseB: baseB}).rankFn()}.rankOrder(n)
				start := 0
				for start < n {
					end := batchEnd(cands, ranks, k, start)
					want := min(start+max(k, start/4), n)
					switch {
					case end <= start || end > n || end < want:
						t.Fatalf("b=%g n=%d k=%d: batch [%d, %d), want it to end at %d or a rank tie later", baseB, n, k, start, end, want)
					case end > want && ranks[cands[end-1]] != ranks[cands[want-1]]:
						t.Fatalf("b=%g n=%d k=%d: batch [%d, %d) runs past %d without a rank tie", baseB, n, k, start, end, want)
					case end < n && ranks[cands[end]] == ranks[cands[end-1]]:
						t.Fatalf("b=%g n=%d k=%d: batch [%d, %d) splits an equal-rank group", baseB, n, k, start, end)
					}
					start = end
				}
			}
		}
	}
}

// TestPartOfInvertsNodeRange: the partition a collected offer is logged
// under is the one whose worker owns the node.
func TestPartOfInvertsNodeRange(t *testing.T) {
	for _, n := range []int{1, 2, 7, 40, 1000} {
		for parts := 1; parts <= min(n, 9); parts++ {
			for p := 0; p < parts; p++ {
				lo, hi := nodeRange(p, parts, n)
				for v := lo; v < hi; v++ {
					if got := partOf(int32(v), parts, n); got != p {
						t.Fatalf("n=%d parts=%d: node %d of range %d [%d, %d) maps to partition %d", n, parts, v, p, lo, hi, got)
					}
				}
			}
		}
	}
}

// --- distance oracle ---

func TestDistanceUpperBound(t *testing.T) {
	// Forward sketches on an undirected graph: d(a,x)+d(x,b) >= d(a,b),
	// and common low-rank beacons usually make the bound tight-ish.
	g := graph.WithRandomWeights(graph.GNP(150, 0.05, false, 41), 1, 3, 42)
	set, err := BuildSet(g, Options{K: 16, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]int32{{0, 50}, {10, 140}, {3, 77}, {25, 25}}
	var boundSum, trueSum float64
	for _, p := range pairs {
		dist := graph.Dijkstra(g, p[0])
		truth := dist[p[1]]
		bound := DistanceUpperBound(set.BottomK(p[0]), set.BottomK(p[1]))
		if bound < truth-1e-9 {
			t.Fatalf("pair %v: bound %g below true distance %g", p, bound, truth)
		}
		if p[0] == p[1] && bound != 0 {
			t.Errorf("self pair bound = %g, want 0", bound)
		}
		boundSum += bound
		trueSum += truth
	}
	// On this well-connected graph the aggregate bound should not be
	// wildly above the truth (beacons are shared).
	if boundSum > 3*trueSum+1 {
		t.Errorf("bounds too loose: sum %g vs true %g", boundSum, trueSum)
	}
}

func TestDistanceUpperBoundDisconnected(t *testing.T) {
	b := graph.NewBuilder(4, false)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	set, err := BuildSet(g, Options{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := DistanceUpperBound(set.BottomK(0), set.BottomK(2)); !math.IsInf(got, 1) {
		t.Errorf("cross-component bound = %g, want +Inf", got)
	}
}
