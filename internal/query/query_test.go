package query

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"adsketch/internal/core"
	"adsketch/internal/graph"
)

func testCache(t *testing.T) (*IndexCache, *core.Set) {
	t.Helper()
	g := graph.GNP(50, 0.1, false, 7)
	set, err := core.BuildSet(g, core.Options{K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return NewIndexCache(set.NumNodes(), func(v int32) *core.HIPIndex {
		return core.NewHIPIndex(set.SketchOf(v))
	}), set
}

// The cache counts misses itself and hits from the lookups its caller
// reports, so a scan that adds its count after each chunk sees
// hits = lookups - misses.  Built and Bytes count the published indices
// only, once each, however many racing Gets built one.
func TestIndexCacheStats(t *testing.T) {
	c, set := testCache(t)
	n := set.NumNodes()
	const racers = 4
	var wg sync.WaitGroup
	for w := 0; w < racers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := int32(0); int(v) < n; v++ {
				if got, want := c.Get(v).Total(), core.EstimateNeighborhoodHIP(set.SketchOf(v), 1e18); got != want {
					t.Errorf("node %d: cache total %v, direct %v", v, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	c.AddLookups(racers * n)
	st := c.Stats()
	held := int64(0)
	for v := int32(0); int(v) < n; v++ {
		held += c.Get(v).Bytes()
	}
	if st.Slots != n || st.Built != n {
		t.Errorf("stats = %+v", st)
	}
	if c.Bytes() != held || held <= 0 {
		t.Errorf("Bytes = %d, the published indices hold %d", c.Bytes(), held)
	}
	if st.Misses < int64(n) || st.Misses > racers*int64(n) || st.Hits != racers*int64(n)-st.Misses {
		t.Errorf("%+v after %d racing lookups of each of %d nodes: want a miss per build, at least one per node", st, racers, n)
	}
	c.Get(7)
	c.AddLookups(1)
	if st2 := c.Stats(); st2.Hits != st.Hits+1 || st2.Misses != st.Misses || st2.Built != n {
		t.Errorf("after one repeat Get: %+v, was %+v", st2, st)
	}
	st = c.Stats()
	// A hit neither allocates nor counts.
	if allocs := testing.AllocsPerRun(100, func() { c.Get(7) }); allocs != 0 {
		t.Errorf("a warm Get allocates %.0f times", allocs)
	}
	if st2 := c.Stats(); st2 != st || c.Bytes() != held {
		t.Errorf("uncounted Gets moved the stats: %+v -> %+v, %d -> %d bytes", st, st2, held, c.Bytes())
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
	if c.Len() != set.NumNodes() || c.Stats().Built != 0 {
		t.Fatalf("fresh cache: Len=%d Built=%d", c.Len(), c.Stats().Built)
	}
	first := c.Get(5)
	if first == nil {
		t.Fatal("nil index")
	}
	if c.Get(5) != first {
		t.Error("second Get returned a different index")
	}
	if c.Stats().Built != 1 {
		t.Errorf("Built = %d, want 1", c.Stats().Built)
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
	if c.Stats().Built != c.Len() {
		t.Errorf("Built = %d, want %d", c.Stats().Built, c.Len())
	}
}

func TestForEachVisitsEverything(t *testing.T) {
	for _, n := range []int{0, 1, ChunkSize - 1, ChunkSize, 3*ChunkSize + 5} {
		for _, workers := range []int{0, 1, 3, 64} {
			visited := make([]atomic.Int32, n)
			err := ForEach(context.Background(), workers, n, func(lo, hi int) {
				if lo%ChunkSize != 0 || hi-lo > ChunkSize || hi <= lo || hi > n {
					t.Errorf("n=%d workers=%d: chunk [%d, %d)", n, workers, lo, hi)
				}
				for i := lo; i < hi; i++ {
					visited[i].Add(1)
				}
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range visited {
				if visited[i].Load() != 1 {
					t.Fatalf("n=%d workers=%d: item %d visited %d times", n, workers, i, visited[i].Load())
				}
			}
		}
	}
}

// One chunk, or one worker, runs on the calling goroutine: starting a
// goroutine would allocate.
func TestForEachInlineStartsNoGoroutine(t *testing.T) {
	ctx := context.Background()
	fn := func(lo, hi int) {}
	for _, c := range []struct{ workers, n int }{{4, 1}, {4, ChunkSize}, {1, 10 * ChunkSize}} {
		if allocs := testing.AllocsPerRun(100, func() { ForEach(ctx, c.workers, c.n, fn) }); allocs != 0 {
			t.Errorf("workers=%d n=%d: %.0f allocations, want 0", c.workers, c.n, allocs)
		}
	}
}

// TestForEachHonorsCancellation: the third chunk cancels.  Every later
// chunk waits until it has, so a worker that ran one finds the context
// cancelled before it claims another.
func TestForEachHonorsCancellation(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		err := ForEach(ctx, workers, 1<<20, func(lo, hi int) {
			switch n := calls.Add(1); {
			case n == 3:
				cancel()
			case n > 3:
				<-ctx.Done()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := calls.Load(); n > int64(3+workers) {
			t.Errorf("workers=%d: no early stop on cancellation: %d chunks", workers, n)
		}
		// Zero items, or a context done before the first chunk: fn never
		// runs and the context's state is the answer.
		for _, n := range []int{0, 1, 1 << 20} {
			if err := ForEach(ctx, workers, n, func(int, int) { t.Error("fn ran under a cancelled context") }); !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d n=%d: err = %v, want context.Canceled", workers, n, err)
			}
		}
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
