package query

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"adsketch/internal/core"
	"adsketch/internal/graph"
	"adsketch/internal/sketch"
)

func testCache(t *testing.T) (*IndexCache, *core.Set) {
	t.Helper()
	g := graph.GNP(50, 0.1, false, 7)
	set, err := core.BuildSet(g, core.Options{K: 4, Flavor: sketch.BottomK, Seed: 3}, core.AlgoPrunedDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	return NewIndexCache(set.NumNodes(), 4, func(v int32) *core.HIPIndex {
		return core.NewHIPIndex(set.SketchOf(v))
	}), set
}

func TestIndexCacheSharding(t *testing.T) {
	c, set := testCache(t)
	if c.Shards() != 4 {
		t.Fatalf("Shards = %d, want 4", c.Shards())
	}
	// Every node resolves to its own index regardless of shard layout.
	for v := int32(0); int(v) < set.NumNodes(); v++ {
		if got, want := c.Get(v).Total(), core.EstimateNeighborhoodHIP(set.SketchOf(v), 1e18); got != want {
			t.Fatalf("node %d: sharded cache total %v, direct %v", v, got, want)
		}
	}
	st := c.Stats()
	if st.Shards != 4 || st.Slots != set.NumNodes() || st.Built != set.NumNodes() {
		t.Errorf("stats = %+v", st)
	}
	if st.Misses != int64(set.NumNodes()) {
		t.Errorf("misses = %d, want %d (one build per node)", st.Misses, set.NumNodes())
	}
	if st.Hits != 0 {
		t.Errorf("hits = %d before any repeat Get", st.Hits)
	}
	c.Get(7)
	if st = c.Stats(); st.Hits != 1 {
		t.Errorf("hits = %d after one repeat Get, want 1", st.Hits)
	}
	// Shard count defaults sanely and clamps to the slot count.
	if d := DefaultShards(); d < 1 || d > 256 {
		t.Errorf("DefaultShards = %d", d)
	}
	small := NewIndexCache(2, 64, func(v int32) *core.HIPIndex {
		return core.NewHIPIndex(set.SketchOf(v))
	})
	if small.Shards() != 2 {
		t.Errorf("Shards = %d for 2 slots, want 2", small.Shards())
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	got := TopK(4, scores)
	want := []int{5, 7, 4, 8} // 9, 6, 5(idx 4), 5(idx 8): ties by ascending index
	if len(got) != len(want) {
		t.Fatalf("TopK = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopK = %v, want %v", got, want)
		}
	}
	if got := TopK(100, scores); len(got) != len(scores) {
		t.Errorf("overlong n: %d results", len(got))
	}
	if got := TopK(0, scores); got != nil {
		t.Errorf("n=0: %v", got)
	}
	if got := TopK(3, nil); got != nil {
		t.Errorf("empty scores: %v", got)
	}
}

func TestIndexCacheLazyAndStable(t *testing.T) {
	c, set := testCache(t)
	if c.Len() != set.NumNodes() || c.Cached() != 0 {
		t.Fatalf("fresh cache: Len=%d Cached=%d", c.Len(), c.Cached())
	}
	first := c.Get(5)
	if first == nil {
		t.Fatal("nil index")
	}
	if c.Get(5) != first {
		t.Error("second Get returned a different index")
	}
	if c.Cached() != 1 {
		t.Errorf("Cached = %d, want 1", c.Cached())
	}
	if got, want := first.Total(), core.EstimateNeighborhoodHIP(set.SketchOf(5), 1e18); got != want {
		t.Errorf("index total %v, direct estimate %v", got, want)
	}
}

func TestIndexCacheConcurrent(t *testing.T) {
	c, _ := testCache(t)
	var wg sync.WaitGroup
	got := make([]*core.HIPIndex, 32)
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := int32(0); int(v) < c.Len(); v++ {
				idx := c.Get(v)
				if v == 13 {
					got[w] = idx
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < len(got); w++ {
		if got[w] != got[0] {
			t.Fatal("concurrent Gets observed different published indices")
		}
	}
	if c.Cached() != c.Len() {
		t.Errorf("Cached = %d, want %d", c.Cached(), c.Len())
	}
}

func TestForEachVisitsEverything(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var visited [100]atomic.Int32
		err := ForEach(context.Background(), workers, len(visited), func(i int) error {
			visited[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range visited {
			if visited[i].Load() != 1 {
				t.Fatalf("workers=%d: item %d visited %d times", workers, i, visited[i].Load())
			}
		}
	}
}

// TestForEachPropagatesError: the fifth call fails.  Every later call
// waits until it has (a no-op fn would let the other workers drain all
// 1000 items while the failing goroutine sits between counting its call
// and returning the error) and then fails too, so each of the other
// workers makes at most one call after the failure, whenever ForEach's
// stop flag becomes visible to it.
func TestForEachPropagatesError(t *testing.T) {
	const workers = 4
	boom := errors.New("boom")
	failed := make(chan struct{})
	var calls atomic.Int64
	err := ForEach(context.Background(), workers, 1000, func(i int) error {
		switch n := calls.Add(1); {
		case n < 5:
			return nil
		case n == 5:
			close(failed)
		default:
			<-failed
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := calls.Load(); n > 5+workers {
		t.Errorf("no early stop: %d calls", n)
	}
}

// TestForEachHonorsCancellation: the hundredth call cancels.  Every later
// call waits until it has, so a worker that made one finds the context
// cancelled before it claims another item.
func TestForEachHonorsCancellation(t *testing.T) {
	const workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	err := ForEach(ctx, workers, 1<<20, func(i int) error {
		switch n := calls.Add(1); {
		case n == 100:
			cancel()
		case n > 100:
			<-ctx.Done()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n > 100+workers {
		t.Errorf("no early stop on cancellation: %d calls", n)
	}
	// Zero items: just reports the context state.
	if err := ForEach(ctx, 2, 0, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("empty err = %v, want context.Canceled", err)
	}
	if err := ForEach(context.Background(), 2, 0, nil); err != nil {
		t.Errorf("empty err = %v, want nil", err)
	}
}

func TestCheckNodes(t *testing.T) {
	if err := CheckNodes(10, []int32{0, 9}); err != nil {
		t.Errorf("valid nodes rejected: %v", err)
	}
	if err := CheckNodes(10, []int32{10}); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := CheckNodes(10, []int32{-1}); err == nil {
		t.Error("negative node accepted")
	}
}
