package adsketch_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"adsketch"
	"adsketch/internal/query"
	"adsketch/lab"
)

func buildEngine(t *testing.T) (*adsketch.Graph, adsketch.SketchSet, *adsketch.Engine) {
	t.Helper()
	g := adsketch.PreferentialAttachment(400, 3, 6)
	set, err := adsketch.Build(g, adsketch.WithK(8), adsketch.WithSeed(19))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := adsketch.NewEngine(set)
	if err != nil {
		t.Fatal(err)
	}
	return g, set, eng
}

// TestEngineMetaPerKind pins the kind and k every construction
// reports through Engine.Meta — for the built set, the set read back from
// its file, and a shard engine over one partition of it.
func TestEngineMetaPerKind(t *testing.T) {
	g := adsketch.PreferentialAttachment(60, 2, 3)
	beta := make([]float64, 60)
	for i := range beta {
		beta[i] = 1 + float64(i%3)
	}
	build := func(opts ...adsketch.Option) func() (*adsketch.Set, error) {
		return func() (*adsketch.Set, error) {
			return adsketch.Build(g, append([]adsketch.Option{adsketch.WithK(4), adsketch.WithSeed(5)}, opts...)...)
		}
	}
	for _, tc := range []struct {
		name  string
		build func() (*adsketch.Set, error)
		kind  string
	}{
		{"bottomk", build(), adsketch.KindUniform},
		{"base-b", build(adsketch.WithBaseB(2)), adsketch.KindUniform},
		{"weighted-exp", build(adsketch.WithNodeWeights(beta)), adsketch.KindWeighted},
		{"weighted-priority", build(adsketch.WithNodeWeights(beta), adsketch.WithPriorityRanks()), adsketch.KindWeighted},
		{"approx", func() (*adsketch.Set, error) { return lab.BuildApprox(g, 4, 5, 0.25) }, adsketch.KindApproximate},
	} {
		set, err := tc.build()
		if err != nil {
			t.Fatal(tc.name, err)
		}
		var file bytes.Buffer
		if _, err := set.WriteTo(&file); err != nil {
			t.Fatal(tc.name, err)
		}
		read, err := adsketch.ReadSketchSet(&file)
		if err != nil {
			t.Fatal(tc.name, err)
		}
		parts, err := adsketch.SplitSketchSet(set, 2)
		if err != nil {
			t.Fatal(tc.name, err)
		}
		built, err := adsketch.NewEngine(set)
		if err != nil {
			t.Fatal(tc.name, err)
		}
		loaded, err := adsketch.NewEngine(read)
		if err != nil {
			t.Fatal(tc.name, err)
		}
		shard, err := adsketch.NewEngine(parts[1])
		if err != nil {
			t.Fatal(tc.name, err)
		}
		for _, eng := range []*adsketch.Engine{built, loaded, shard} {
			if m := eng.Meta(); m.Kind != tc.kind || m.K != 4 {
				t.Errorf("%s: meta kind %q k %d, want %q 4", tc.name, m.Kind, m.K, tc.kind)
			}
		}
	}
}

// Engine batch answers must be bit-for-bit identical to the per-call
// estimators on the same sketches.
func TestEngineMatchesPerCallEstimators(t *testing.T) {
	_, set, eng := buildEngine(t)
	c := lab.NewCentrality(set)
	ctx := context.Background()
	nodes := make([]int32, set.NumNodes())
	for i := range nodes {
		nodes[i] = int32(i)
	}

	clos, err := eng.Closeness(ctx, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	harm, err := eng.Harmonic(ctx, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := eng.NeighborhoodSizes(ctx, 2, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	qfun := func(node int32, dist float64) float64 { return math.Exp2(-dist) * float64(node%3) }
	qs, err := eng.EstimateQBatch(ctx, qfun, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range nodes {
		if got, want := clos[v], c.Closeness(v); got != want {
			t.Fatalf("closeness(%d) = %v, per-call %v", v, got, want)
		}
		if got, want := harm[v], c.Harmonic(v); got != want {
			t.Fatalf("harmonic(%d) = %v, per-call %v", v, got, want)
		}
		if got, want := sizes[v], adsketch.EstimateNeighborhoodHIP(set.SketchOf(v), 2); got != want {
			t.Fatalf("|N_2(%d)| = %v, per-call %v", v, got, want)
		}
		if got, want := qs[v], adsketch.EstimateQ(set.SketchOf(v), qfun); got != want {
			t.Fatalf("Q(%d) = %v, per-call %v", v, got, want)
		}
	}

	top, err := eng.TopCloseness(ctx, 25)
	if err != nil {
		t.Fatal(err)
	}
	want := c.TopCloseness(25)
	if len(top) != len(want) {
		t.Fatalf("TopCloseness returned %d entries, want %d", len(top), len(want))
	}
	for i := range top {
		if top[i] != want[i] {
			t.Fatalf("TopCloseness[%d] = %+v, per-call %+v", i, top[i], want[i])
		}
	}
}

// The Engine serves weighted and approximate sets through the same
// interface.
func TestEngineOverAllSetKinds(t *testing.T) {
	g := adsketch.PreferentialAttachment(120, 3, 2)
	beta := make([]float64, 120)
	for i := range beta {
		beta[i] = 1 + float64(i%4)
	}
	gw := adsketch.WithRandomWeights(adsketch.GNP(120, 0.05, false, 3), 1, 4, 4)
	uniform, err := adsketch.Build(g, adsketch.WithK(6), adsketch.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := adsketch.Build(g, adsketch.WithK(6), adsketch.WithSeed(1), adsketch.WithNodeWeights(beta))
	if err != nil {
		t.Fatal(err)
	}
	approx, err := lab.BuildApprox(gw, 6, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for name, set := range map[string]adsketch.SketchSet{
		"uniform": uniform, "weighted": weighted, "approx": approx,
	} {
		eng, err := adsketch.NewEngine(set)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := eng.NeighborhoodSizes(context.Background(), math.Inf(1), 0, 1, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, x := range got {
			if x <= 0 {
				t.Errorf("%s: estimate[%d] = %g", name, i, x)
			}
		}
	}
}

func TestEngineBadInputs(t *testing.T) {
	_, set, eng := buildEngine(t)
	ctx := context.Background()
	if _, err := eng.Closeness(ctx, int32(set.NumNodes())); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := eng.Closeness(ctx, -1); err == nil {
		t.Error("negative node accepted")
	}
	out, err := eng.Closeness(ctx) // empty batch
	if err != nil || len(out) != 0 {
		t.Errorf("empty batch = (%v, %v)", out, err)
	}
}

// The scan's worker count, GOMAXPROCS, must be invisible to results, and
// the cache counters must count every node a scan looked up: hits +
// misses = lookups, with one miss per node on first touch.
func TestEngineCacheStats(t *testing.T) {
	_, set, base := buildEngine(t)
	ctx := context.Background()
	nodes := make([]int32, set.NumNodes())
	for i := range nodes {
		nodes[i] = int32(i)
	}
	want, err := base.Closeness(ctx, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 16} {
		setProcs(t, workers)
		eng, err := adsketch.NewEngine(set)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Closeness(ctx, nodes...)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("workers=%d: closeness(%d) = %v, want %v", workers, v, got[v], want[v])
			}
		}
		st := eng.CacheStats()
		wantSt := adsketch.CacheStats{Slots: set.NumNodes(), Built: set.NumNodes(), Misses: int64(set.NumNodes())}
		if st != wantSt {
			t.Errorf("workers=%d: stats after a full scan %+v, want %+v", workers, st, wantSt)
		}
		if _, err := eng.Closeness(ctx, 0, 1, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.TopCloseness(ctx, 1); err != nil {
			t.Fatal(err)
		}
		wantSt.Hits = int64(3 + set.NumNodes())
		if st := eng.CacheStats(); st != wantSt {
			t.Errorf("workers=%d: stats after 3 more lookups and a top-k %+v, want %+v", workers, st, wantSt)
		}
	}
}

// Top-N selection edge cases around the bounded-heap path.
func TestEngineTopEdgeCases(t *testing.T) {
	_, set, eng := buildEngine(t)
	ctx := context.Background()
	// n larger than the set clamps to a full ranking.
	all, err := eng.TopCloseness(ctx, set.NumNodes()+100)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != set.NumNodes() {
		t.Fatalf("overlong n: %d entries, want %d", len(all), set.NumNodes())
	}
	c := lab.NewCentrality(set)
	want := c.TopCloseness(set.NumNodes())
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("full ranking[%d] = %+v, want %+v", i, all[i], want[i])
		}
	}
	// n = 1 and n = 0.
	one, err := eng.TopHarmonic(ctx, 1)
	if err != nil || len(one) != 1 {
		t.Fatalf("top-1 = (%v, %v)", one, err)
	}
	if wh := c.TopHarmonic(1); one[0] != wh[0] {
		t.Errorf("top-1 = %+v, want %+v", one[0], wh[0])
	}
	zero, err := eng.TopCloseness(ctx, 0)
	if err != nil || len(zero) != 0 {
		t.Errorf("top-0 = (%v, %v)", zero, err)
	}
}

// Concurrent batch queries share the lazily built index cache; run with
// -race to exercise the publication path.
func TestEngineConcurrentQueries(t *testing.T) {
	setProcs(t, 4)
	_, set, eng := buildEngine(t)
	c := lab.NewCentrality(set)
	want := make([]float64, set.NumNodes())
	for v := range want {
		want[v] = c.Closeness(int32(v))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			nodes := make([]int32, 0, set.NumNodes())
			for v := w % 3; v < set.NumNodes(); v += 1 + w%3 {
				nodes = append(nodes, int32(v))
			}
			for rep := 0; rep < 5; rep++ {
				got, err := eng.Closeness(ctx, nodes...)
				if err != nil {
					errs <- err
					return
				}
				for i, v := range nodes {
					if got[i] != want[v] {
						t.Errorf("worker %d: closeness(%d) = %v, want %v", w, v, got[i], want[v])
						return
					}
				}
				if _, err := eng.TopCloseness(ctx, 5); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := eng.CacheStats().Built; got != set.NumNodes() {
		t.Errorf("CacheStats().Built = %d, want %d", got, set.NumNodes())
	}
}

func TestEngineContextCancellation(t *testing.T) {
	setProcs(t, 2)
	_, set, eng := buildEngine(t)
	nodes := make([]int32, set.NumNodes())
	for i := range nodes {
		nodes[i] = int32(i)
	}

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := eng.Closeness(ctx, nodes...); !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
		if _, err := eng.TopCloseness(ctx, 3); !errors.Is(err, context.Canceled) {
			t.Errorf("TopCloseness err = %v, want context.Canceled", err)
		}
	})

	t.Run("mid-batch", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var calls atomic.Int64
		_, err := eng.EstimateQBatch(ctx, func(_ int32, _ float64) float64 {
			if calls.Add(1) == 10 {
				cancel()
			}
			return 1
		}, nodes...)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	})

	// A batch of several chunks across two workers, cancelled in its first
	// chunk: at most one chunk per worker runs, the partial results are
	// discarded, and the cache counts only the lookups that ran.
	t.Run("multi-chunk", func(t *testing.T) {
		_, _, eng := buildEngine(t)
		many := make([]int32, 4*query.ChunkSize+7)
		for i := range many {
			many[i] = int32(i % set.NumNodes())
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var evals atomic.Int64
		out, err := eng.EstimateQBatch(ctx, func(int32, float64) float64 {
			if evals.Add(1) == 1 {
				cancel()
			}
			return 1
		}, many...)
		if !errors.Is(err, context.Canceled) || out != nil {
			t.Fatalf("(%v, %v), want (nil, context.Canceled)", out, err)
		}
		st := eng.CacheStats()
		if looked := st.Hits + st.Misses; looked == 0 || looked > 2*query.ChunkSize {
			t.Errorf("cancelled in its first chunk, the batch looked up %d nodes; want 1 to %d (a chunk per worker)", looked, 2*query.ChunkSize)
		}
	})
}

// A cold engine answers a single-node query without building every index
// (laziness), then fills the cache on a full scan.
func TestEngineLazyIndexing(t *testing.T) {
	_, set, eng := buildEngine(t)
	if got := eng.CacheStats().Built; got != 0 {
		t.Fatalf("fresh engine has %d cached indices", got)
	}
	if _, err := eng.Closeness(context.Background(), 7); err != nil {
		t.Fatal(err)
	}
	if got := eng.CacheStats().Built; got != 1 {
		t.Errorf("after one query: %d cached indices, want 1", got)
	}
	if _, err := eng.TopCloseness(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if got := eng.CacheStats().Built; got != set.NumNodes() {
		t.Errorf("after full scan: %d cached indices, want %d", got, set.NumNodes())
	}
	// The cached index answers repeated queries identically.
	idx, err := eng.Index(7)
	if err != nil {
		t.Fatal(err)
	}
	again, err := eng.Index(7)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Closeness() <= 0 || idx != again {
		t.Error("Index(7) not cached or implausible")
	}
	if _, err := eng.Index(-1); err == nil {
		t.Error("Index(-1) accepted")
	}
	if _, err := eng.Index(int32(set.NumNodes())); err == nil {
		t.Error("Index out of range accepted")
	}
}

// TestEngineFirstQueryBuildsOneIndex: a fresh engine's first single-node
// query builds that node's index and no other — one miss, one index, the
// bytes of one node's weights and sums — in a handful of allocations
// beside the request's own: the index, its slice and the weight heap.
func TestEngineFirstQueryBuildsOneIndex(t *testing.T) {
	_, set, _ := buildEngine(t)
	const v, runs = 17, 20
	engines := make([]*adsketch.Engine, runs+1) // AllocsPerRun calls once more to warm up
	for i := range engines {
		eng, err := adsketch.NewEngine(set)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	ctx, req := context.Background(), adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{v}}}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := engines[next].Do(ctx, req); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs > 6 {
		t.Errorf("a cold single-node Engine.Do: %.0f allocations, want at most 6", allocs)
	}
	entries := int64(set.SketchOf(v).Size())
	for _, eng := range engines {
		st := eng.CacheStats()
		if st.Built != 1 || st.Misses != 1 || st.Hits != 0 {
			t.Fatalf("after the first query: %+v, want one index built on one miss", st)
		}
		if b := eng.IndexBytes(); b <= 0 || b > 8*entries+512 {
			t.Fatalf("after the first query: %d index bytes for node %d's %d entries, want at most %d", b, v, entries, 8*entries+512)
		}
	}
}

// TestEngineDoAllocs pins the request path's allocations with a warm
// cache.  A single-node closeness request allocates its scan closure and
// its score column, directly and through the catalog.  A top-k allocates
// the same two over the whole set, plus the selection heap, its index
// list and the ranking; a second worker adds the shared chunk counter,
// its wait group and the goroutine's closures.  AllocsPerRun runs at
// GOMAXPROCS 1, so the engine scans on the calling goroutine; the
// two-worker row counts at GOMAXPROCS 2 instead.
func TestEngineDoAllocs(t *testing.T) {
	_, set, eng := buildEngine(t)
	cat, err := adsketch.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if err := cat.Attach(adsketch.DefaultDataset, adsketch.SetSource(set)); err != nil {
		t.Fatal(err)
	}
	point := adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{17}}}
	topk := adsketch.Request{TopK: &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 10}}
	for _, c := range []struct {
		name string
		b    interface {
			Do(context.Context, adsketch.Request) (adsketch.Response, error)
		}
		req   adsketch.Request
		max   float64
		procs int
	}{
		{"Engine.Do point", eng, point, 2, 1},
		{"Catalog.Do point", cat, point, 2, 1},
		{"Engine.Do topk", eng, topk, 6, 1},
		{"Engine.Do topk, 2 workers", eng, topk, 10, 2},
	} {
		ctx := context.Background()
		if _, err := c.b.Do(ctx, c.req); err != nil { // warm the cache
			t.Fatal(err)
		}
		run := func() {
			if _, err := c.b.Do(ctx, c.req); err != nil {
				t.Fatal(err)
			}
		}
		var allocs float64
		if c.procs > 1 {
			allocs = allocsAtProcs(c.procs, 50, run)
		} else {
			allocs = testing.AllocsPerRun(50, run)
		}
		if allocs > c.max {
			t.Errorf("%s: %.0f allocations, want at most %.0f", c.name, allocs, c.max)
		}
	}
}

// allocsAtProcs is testing.AllocsPerRun at GOMAXPROCS=procs rather than 1:
// the mean allocations of runs calls of f, after one warm-up call.
func allocsAtProcs(procs, runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// TestColdIndexBytes pins what serving the repository benchmark's set
// costs beyond its frame — PA(10000, 5) of graph seed 1, k=16, rank seed
// 42, whose 1,113,880-byte frame TestBenchmarkFrameBytes pins: one top-k
// builds every node's HIP index, 10,000 of them, which hold 11,802,352
// bytes (1,180.24 B/node, 10.60× the frame's 111.39; 32 B an index less
// since the index's steps hold no step bits to view, and 8 B less since
// it keeps no total of its weights apart from its last prefix sum).  The
// count follows the entries and distance steps alone, so a change in it is
// a change of the index layout.
func TestColdIndexBytes(t *testing.T) {
	set, err := adsketch.Build(adsketch.PreferentialAttachment(10000, 5, 1), adsketch.WithK(16), adsketch.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := adsketch.NewEngine(set)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.TopCloseness(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if got, built := eng.IndexBytes(), eng.CacheStats().Built; got != 11802352 || built != 10000 {
		t.Errorf("one top-k built %d indexes holding %d bytes, want 10000 and 11802352", built, got)
	}
}
