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

// TestRouterOwnerAndPlan: Plan routes each node to the partition
// core.PartRange gives it — for a 4-way split of 10 nodes [0, 2), [2, 5),
// [5, 7) and [7, 10) — and orders the groups by first appearance.
func TestRouterOwnerAndPlan(t *testing.T) {
	owners := map[int32]int{0: 0, 1: 0, 2: 1, 4: 1, 5: 2, 6: 2, 7: 3, 9: 3}
	for v, want := range owners {
		if subs := Plan([]int32{v}, 4, 10); len(subs) != 1 || subs[0].Shard != want {
			t.Errorf("Plan([%d]) = %+v, want one sub of shard %d", v, subs, want)
		}
	}

	nodes := []int32{9, 0, 4, 1, 8}
	// Groups in first-appearance order: shard 3 (node 9), shard 0 (0, 1),
	// shard 1 (4).
	want := []Sub{
		{Shard: 3, Nodes: []int32{9, 8}, Pos: []int{0, 4}},
		{Shard: 0, Nodes: []int32{0, 1}, Pos: []int{1, 3}},
		{Shard: 1, Nodes: []int32{4}, Pos: []int{2}},
	}
	if subs := Plan(nodes, 4, 10); !reflect.DeepEqual(subs, want) {
		t.Errorf("Plan = %+v, want %+v", subs, want)
	}
	if subs := Plan(nil, 4, 10); subs != nil {
		t.Errorf("Plan(nil) = %+v, want no subs", subs)
	}
}

func TestMergeScores(t *testing.T) {
	nodes := []int32{7, 2, 9, 0}
	subs := Plan(nodes, 2, 10)
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
	nodes := []int32{7, 2, 9, 0}
	subs := Plan(nodes, 2, 10)
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

// Backoff doubles its base per retry up to one second, and a base of zero
// or less never pauses: the rule both the coordinator's shard retries and
// adsserver's worker dials follow.
func TestBackoff(t *testing.T) {
	for _, tc := range []struct {
		base time.Duration
		n    int
		want time.Duration
	}{
		{25 * time.Millisecond, 1, 25 * time.Millisecond},
		{25 * time.Millisecond, 2, 50 * time.Millisecond},
		{25 * time.Millisecond, 6, 800 * time.Millisecond},
		{25 * time.Millisecond, 7, time.Second},
		{25 * time.Millisecond, 200, time.Second},
		{250 * time.Millisecond, 1, 250 * time.Millisecond},
		{250 * time.Millisecond, 2, 500 * time.Millisecond},
		{250 * time.Millisecond, 3, time.Second},
		{3 * time.Second, 1, time.Second},
		{time.Duration(1) << 62, 2, time.Second},
		{0, 5, 0},
		{-time.Millisecond, 1, 0},
	} {
		if got := Backoff(tc.base, tc.n); got != tc.want {
			t.Errorf("Backoff(%v, %d) = %v, want %v", tc.base, tc.n, got, tc.want)
		}
	}
}
