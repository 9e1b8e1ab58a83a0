package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"adsketch/internal/query"
)

func ranges(bounds ...int32) []Range {
	out := make([]Range, len(bounds)-1)
	for i := range out {
		out[i] = Range{Shard: i, Lo: bounds[i], Hi: bounds[i+1]}
	}
	return out
}

func TestRouterCoverValidation(t *testing.T) {
	if _, err := NewRouter(ranges(0, 3, 7, 10), 10); err != nil {
		t.Errorf("valid cover rejected: %v", err)
	}
	// Empty ranges are tolerated.
	if _, err := NewRouter(ranges(0, 3, 3, 10), 10); err != nil {
		t.Errorf("cover with empty range rejected: %v", err)
	}
	bad := []struct {
		name   string
		ranges []Range
		total  int
	}{
		{"gap", ranges(0, 3, 7), 10},
		{"hole", []Range{{0, 0, 3}, {1, 5, 10}}, 10},
		{"overlap", []Range{{0, 0, 5}, {1, 3, 10}}, 10},
		{"inverted", []Range{{0, 5, 3}, {1, 5, 10}}, 10},
		{"not-from-zero", []Range{{0, 2, 10}}, 10},
		{"overshoot", ranges(0, 4, 12), 10},
	}
	for _, tc := range bad {
		if _, err := NewRouter(tc.ranges, tc.total); err == nil {
			t.Errorf("%s: invalid cover accepted", tc.name)
		}
	}
}

func TestRouterOwnerAndPlan(t *testing.T) {
	r, err := NewRouter(ranges(0, 3, 3, 7, 10), 10)
	if err != nil {
		t.Fatal(err)
	}
	owners := map[int32]int{0: 0, 2: 0, 3: 2, 6: 2, 7: 3, 9: 3}
	for v, want := range owners {
		got, err := r.Owner(v)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Owner(%d) = %d, want %d", v, got, want)
		}
	}
	for _, v := range []int32{-1, 10, 100} {
		if _, err := r.Owner(v); err == nil {
			t.Errorf("Owner(%d) succeeded", v)
		}
	}

	nodes := []int32{9, 0, 4, 1, 8}
	subs, err := r.Plan(nodes)
	if err != nil {
		t.Fatal(err)
	}
	// Groups in first-appearance order: shard 3 (node 9), shard 0 (0, 1),
	// shard 2 (4).
	want := []Sub{
		{Shard: 3, Nodes: []int32{9, 8}, Pos: []int{0, 4}},
		{Shard: 0, Nodes: []int32{0, 1}, Pos: []int{1, 3}},
		{Shard: 2, Nodes: []int32{4}, Pos: []int{2}},
	}
	if !reflect.DeepEqual(subs, want) {
		t.Errorf("Plan = %+v, want %+v", subs, want)
	}
}

func TestMergeScores(t *testing.T) {
	r, err := NewRouter(ranges(0, 5, 10), 10)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []int32{7, 2, 9, 0}
	subs, err := r.Plan(nodes)
	if err != nil {
		t.Fatal(err)
	}
	// Shard score = node*10, to make merged positions checkable.
	partial := make([][]float64, len(subs))
	for i, sub := range subs {
		for _, v := range sub.Nodes {
			partial[i] = append(partial[i], float64(v)*10)
		}
	}
	ok := []bool{true, true} // shards 1 (7, 9) and 0 (2, 0)
	got, missing, err := MergeScores(len(nodes), subs, partial, ok)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{70, 20, 90, 0}
	if !reflect.DeepEqual(got, want) || missing != nil {
		t.Errorf("MergeScores = %v (missing %v), want %v (missing none)", got, missing, want)
	}

	// A shard returning the wrong cardinality must fail loudly.
	partial[0] = partial[0][:len(partial[0])-1]
	if _, _, err := MergeScores(len(nodes), subs, partial, ok); err == nil {
		t.Error("short partial merged successfully")
	}
}

// MergeTopK over per-shard top-k lists must equal the single-vector
// bounded-heap selection, including tie-breaks.
func TestMergeTopKMatchesSingleSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(12)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = float64(rng.Intn(8)) // few distinct values -> many ties
		}
		// Reference: the engine-side selection over the whole vector.
		ref := query.TopK(k, scores)
		var want []Ranked
		for _, v := range ref {
			want = append(want, Ranked{Node: int32(v), Score: scores[v]})
		}
		// Split into random contiguous shards; each shard contributes its
		// own top-k (computed the same way a shard engine would).
		nshards := 1 + rng.Intn(4)
		var lists [][]Ranked
		lo := 0
		for s := 0; s < nshards; s++ {
			hi := lo + (n-lo)/(nshards-s)
			if s == nshards-1 {
				hi = n
			}
			local := scores[lo:hi]
			top := query.TopK(k, local)
			var list []Ranked
			for _, v := range top {
				list = append(list, Ranked{Node: int32(lo + v), Score: local[v]})
			}
			lists = append(lists, list)
			lo = hi
		}
		got := MergeTopK(k, lists)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d, k=%d, shards=%d): merged %v, want %v", trial, n, k, nshards, got, want)
		}
	}
}

func TestScatterAllCollectsEveryError(t *testing.T) {
	sentinel := errors.New("shard down")
	errs, err := ScatterAll(context.Background(), 8, func(i int) error {
		if i%3 == 0 {
			return fmt.Errorf("%w: %d", sentinel, i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if want := i%3 == 0; (e != nil) != want {
			t.Errorf("errs[%d] = %v, want error: %v", i, e, want)
		}
		if e != nil && !errors.Is(e, sentinel) {
			t.Errorf("errs[%d] = %v, want %v", i, e, sentinel)
		}
	}

	// One shard's failure must not stop the others: every index runs.
	visited := make([]bool, 16)
	if _, err := ScatterAll(context.Background(), 16, func(i int) error {
		visited[i] = true
		return sentinel
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range visited {
		if !v {
			t.Errorf("shard %d not visited after sibling failures", i)
		}
	}
}

func TestScatterAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errs, err := ScatterAll(ctx, 4, func(int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ScatterAll error = %v", err)
	}
	for i, e := range errs {
		if e == nil {
			t.Errorf("errs[%d] = nil after cancellation; unvisited shards must not report success", i)
		}
	}
}

// Shard calls block on the network, so every one must be in flight at
// once whatever GOMAXPROCS is: each call here waits until all n have
// started, which a fan-out capped at GOMAXPROCS never reaches.
func TestScatterAllStartsEveryShard(t *testing.T) {
	n := 2*runtime.GOMAXPROCS(0) + 3
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var started sync.WaitGroup
	started.Add(n)
	all := make(chan struct{})
	go func() { started.Wait(); close(all) }()
	errs, err := ScatterAll(ctx, n, func(int) error {
		started.Done()
		select {
		case <-all:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	if err := errors.Join(append(errs, err)...); err != nil {
		t.Errorf("%d shard calls never all in flight at GOMAXPROCS=%d: %v", n, runtime.GOMAXPROCS(0), err)
	}
}

func TestMergeScoresPartial(t *testing.T) {
	r, err := NewRouter(ranges(0, 5, 10), 10)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []int32{7, 2, 9, 0}
	subs, err := r.Plan(nodes)
	if err != nil {
		t.Fatal(err)
	}
	partial := make([][]float64, len(subs))
	ok := make([]bool, len(subs))
	for i, sub := range subs {
		ok[i] = true
		for _, v := range sub.Nodes {
			partial[i] = append(partial[i], float64(v)*10)
		}
	}

	// Shard 0 (nodes 7, 9 at positions 0, 2) failed: its positions stay
	// zero and are reported, the survivors land in request order.
	ok[0] = false
	partial[0] = nil
	got, missing, err := MergeScores(len(nodes), subs, partial, ok)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 20, 0, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("degraded scores = %v, want %v", got, want)
	}
	if want := []int{0, 2}; !reflect.DeepEqual(missing, want) {
		t.Errorf("missing positions = %v, want %v", missing, want)
	}

	// A surviving shard with the wrong cardinality still fails loudly.
	ok[0] = true
	partial[0] = []float64{1}
	if _, _, err := MergeScores(len(nodes), subs, partial, ok); err == nil {
		t.Error("short surviving partial merged successfully")
	}
}
