package adsketch_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"adsketch"
)

// parityRequests enumerates every protocol query kind, several
// parameterizations each — the corpus the coordinator must answer
// byte-identically to a single engine.
func parityRequests() []adsketch.Request {
	return []adsketch.Request{
		{ID: "cl", Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0, 99, 100, 250, 399}}},
		{ID: "ha", Harmonic: &adsketch.HarmonicQuery{Nodes: []int32{399, 0, 150}}},
		{ID: "nb", Neighborhood: &adsketch.NeighborhoodQuery{Radius: 2, Nodes: []int32{0, 101, 399}}},
		{ID: "nu", Neighborhood: &adsketch.NeighborhoodQuery{Unbounded: true, Nodes: []int32{7, 210}}},
		{ID: "tc", TopK: &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 10}},
		{ID: "th", TopK: &adsketch.TopKQuery{Metric: adsketch.MetricHarmonic, K: 25}},
		{ID: "tb", TopK: &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 100000}}, // K > n clamps
		{ID: "kt", CentralityKernel: &adsketch.CentralityKernelQuery{Kernel: adsketch.KernelNameThreshold, Radius: 3, Nodes: []int32{1, 200}}},
		{ID: "ke", CentralityKernel: &adsketch.CentralityKernelQuery{Kernel: adsketch.KernelNameExponential, Nodes: []int32{1, 200, 399}}},
		{ID: "kh", CentralityKernel: &adsketch.CentralityKernelQuery{Kernel: adsketch.KernelNameHarmonic, Nodes: []int32{42}}},
		{ID: "ja", Jaccard: &adsketch.JaccardQuery{A: 5, RadiusA: 2, B: 395, RadiusB: 2}}, // cross-shard pair
		{ID: "jb", Jaccard: &adsketch.JaccardQuery{A: 10, RadiusA: 3, B: 11, RadiusB: 3}}, // same-shard pair
		{ID: "iu", Influence: &adsketch.InfluenceQuery{Seeds: []int32{0, 150, 399}, Radius: 2}},
		{ID: "ig", Influence: &adsketch.InfluenceQuery{NumSeeds: 3, Candidates: []int32{0, 99, 100, 250, 399}, Radius: 2}},
		{ID: "ia", Influence: &adsketch.InfluenceQuery{NumSeeds: 2, Radius: 2}}, // candidates = all nodes
		{ID: "db", DistanceBound: &adsketch.DistanceBoundQuery{A: 3, B: 398}},
		{ID: "sk", Sketch: &adsketch.SketchQuery{Node: 399}},
	}
}

// buildCluster builds one engine over the whole set and a coordinator
// over a 4-partition in-process split of the same set.
func buildCluster(t *testing.T) (*adsketch.Engine, *adsketch.Coordinator) {
	t.Helper()
	_, set, eng := buildEngine(t)
	coord, err := adsketch.NewPartitionedEngine(set, 4)
	if err != nil {
		t.Fatal(err)
	}
	if coord.NumShards() != 4 || coord.NumNodes() != set.NumNodes() || coord.K() != set.K() {
		t.Fatalf("coordinator shape: %d shards, %d nodes, k=%d", coord.NumShards(), coord.NumNodes(), coord.K())
	}
	return eng, coord
}

// The acceptance criterion: a 4-partition split answers every protocol
// query kind byte-identically to the unpartitioned set.
func TestCoordinatorParityAllKinds(t *testing.T) {
	eng, coord := buildCluster(t)
	ctx := context.Background()
	for _, req := range parityRequests() {
		t.Run(req.ID, func(t *testing.T) {
			want, err := eng.Do(ctx, req)
			if err != nil {
				t.Fatalf("engine: %v", err)
			}
			got, err := coord.Do(ctx, req)
			if err != nil {
				t.Fatalf("coordinator: %v", err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(wantJSON) {
				t.Errorf("coordinator response differs:\n  coordinator %s\n  single      %s", gotJSON, wantJSON)
			}
		})
	}
}

// The same parity must hold through DoBatch, with per-request errors
// confined to their slots.
func TestCoordinatorBatchParity(t *testing.T) {
	eng, coord := buildCluster(t)
	reqs := append(parityRequests(),
		adsketch.Request{ID: "bad", Closeness: &adsketch.ClosenessQuery{Nodes: []int32{-1}}})
	want, err := eng.DoBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.DoBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d responses, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Error != "" {
			if got[i].Error == "" {
				t.Errorf("request %s: coordinator succeeded where engine errored", reqs[i].ID)
			}
			continue
		}
		wantJSON, _ := json.Marshal(want[i])
		gotJSON, _ := json.Marshal(got[i])
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("request %s differs:\n  coordinator %s\n  single      %s", reqs[i].ID, gotJSON, wantJSON)
		}
	}
}

// Explain attaches merge metadata naming the consulted shards; without
// it the field stays absent (preserving byte parity).
func TestCoordinatorExplain(t *testing.T) {
	_, coord := buildCluster(t)
	ctx := context.Background()
	resp, err := coord.Do(ctx, adsketch.Request{
		Explain:   true,
		Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0, 399}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Merge == nil || resp.Merge.Partials != 2 || !reflect.DeepEqual(resp.Merge.Shards, []int{0, 3}) {
		t.Errorf("merge meta: %+v", resp.Merge)
	}
	resp2, err := coord.Do(ctx, adsketch.Request{
		Explain: true,
		TopK:    &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Merge == nil || resp2.Merge.Partials != 4 {
		t.Errorf("topk merge meta: %+v", resp2.Merge)
	}
	plain, err := coord.Do(ctx, adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0}}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Merge != nil {
		t.Errorf("merge meta attached without Explain: %+v", plain.Merge)
	}
}

// A shard engine answers for exactly the global node IDs it owns.
func TestShardEngineOwnership(t *testing.T) {
	_, set, _ := buildEngine(t)
	parts, err := adsketch.SplitSketchSet(set, 4)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := adsketch.NewEngine(parts[2])
	if err != nil {
		t.Fatal(err)
	}
	meta := shard.Meta()
	if meta.Index != 2 || meta.Count != 4 || meta.TotalNodes != set.NumNodes() {
		t.Fatalf("shard meta: %+v", meta)
	}
	ctx := context.Background()
	owned := meta.Lo
	full, err := adsketch.NewEngine(set)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Closeness(ctx, owned)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shard.Closeness(ctx, owned)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Errorf("shard closeness(%d) = %v, single %v", owned, got[0], want[0])
	}
	// Unowned (but globally valid) nodes are rejected as bad requests.
	if _, err := shard.Closeness(ctx, meta.Hi); !errors.Is(err, adsketch.ErrBadRequest) {
		t.Errorf("unowned node error = %v, want ErrBadRequest", err)
	}
	// Shard topk ranks only owned nodes, with global IDs.
	top, err := shard.TopCloseness(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range top {
		if r.Node < meta.Lo || r.Node >= meta.Hi {
			t.Errorf("shard ranking contains unowned node %d", r.Node)
		}
	}
}

// Coordinators compose: a coordinator over {coordinator, engine} backends
// still answers bit-for-bit.
func TestCoordinatorNesting(t *testing.T) {
	_, set, eng := buildEngine(t)
	parts, err := adsketch.SplitSketchSet(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Left half: a nested 2-way coordinator serving partition 0's range is
	// not possible (it reports the full range), so nest the whole thing:
	// a 1-backend coordinator over a 2-way split coordinator.
	inner, err := adsketch.NewPartitionedEngine(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := adsketch.NewCoordinator([]adsketch.ShardBackend{inner})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := adsketch.Request{TopK: &adsketch.TopKQuery{Metric: adsketch.MetricHarmonic, K: 7}}
	want, err := eng.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := outer.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("nested coordinator differs:\n  %s\n  %s", gotJSON, wantJSON)
	}
	_ = parts
}

func TestCoordinatorValidation(t *testing.T) {
	_, set, eng := buildEngine(t)
	if _, err := adsketch.NewCoordinator(nil); err == nil {
		t.Error("empty coordinator accepted")
	}
	parts, err := adsketch.SplitSketchSet(set, 3)
	if err != nil {
		t.Fatal(err)
	}
	shard0, err := adsketch.NewEngine(parts[0])
	if err != nil {
		t.Fatal(err)
	}
	// Incomplete cover.
	if _, err := adsketch.NewCoordinator([]adsketch.ShardBackend{shard0}); err == nil {
		t.Error("incomplete cover accepted")
	}
	// Mismatched splits (whole engine + shard of the same node space
	// overlap).
	if _, err := adsketch.NewCoordinator([]adsketch.ShardBackend{eng, shard0}); err == nil {
		t.Error("overlapping shards accepted")
	}
}

// metaShard is a backend that reports the meta it is given and serves
// nothing: a coordinator must judge a split by its metas alone.
type metaShard struct{ meta adsketch.ShardMeta }

func (s metaShard) Meta() adsketch.ShardMeta { return s.meta }

func (metaShard) Do(context.Context, adsketch.Request) (adsketch.Response, error) {
	return adsketch.Response{}, errors.New("metaShard serves nothing")
}

func (metaShard) DoBatch(context.Context, []adsketch.Request) ([]adsketch.Response, error) {
	return nil, errors.New("metaShard serves nothing")
}

// shardsOf returns one metaShard per [lo, hi) pair, shard i claiming
// partition i of len(bounds)/2 of total nodes.
func shardsOf(total int, bounds ...int32) []adsketch.ShardBackend {
	out := make([]adsketch.ShardBackend, len(bounds)/2)
	for i := range out {
		out[i] = metaShard{adsketch.ShardMeta{Index: i, Count: len(out), Lo: bounds[2*i], Hi: bounds[2*i+1],
			TotalNodes: total, K: 8, Kind: adsketch.KindUniform}}
	}
	return out
}

// TestCoordinatorCoverValidation: a coordinator takes exactly the
// partitions 0..P-1 of one split, each over the range core.PartRange
// gives it, in any order, and refuses any other cover at construction,
// naming the backend — a contiguous tiling that is not the canonical one
// too, which would otherwise fail query by query.  A node outside the
// split is a bad request.
func TestCoordinatorCoverValidation(t *testing.T) {
	good := shardsOf(10, 0, 5, 5, 10)
	if _, err := adsketch.NewCoordinator(good); err != nil {
		t.Errorf("canonical 2-way split of 10 nodes refused: %v", err)
	}
	coord, err := adsketch.NewCoordinator([]adsketch.ShardBackend{good[1], good[0]})
	if err != nil {
		t.Fatalf("canonical split in reverse order refused: %v", err)
	}
	bad := []struct {
		name     string
		backends []adsketch.ShardBackend
		shard    int // the backend the error names
	}{
		{"not canonical", shardsOf(10, 0, 6, 6, 10), 0},
		{"gap", shardsOf(10, 0, 3, 7, 10), 0},
		{"hole", shardsOf(10, 0, 5, 7, 10), 1},
		{"overlap", shardsOf(10, 0, 5, 3, 10), 1},
		{"inverted", shardsOf(10, 5, 3, 5, 10), 0},
		{"not from zero", shardsOf(10, 2, 10), 0},
		{"overshoot", shardsOf(10, 0, 5, 5, 12), 1},
		{"empty range", shardsOf(10, 0, 3, 3, 3, 3, 10), 1},
		{"duplicate", []adsketch.ShardBackend{good[0], good[0]}, 1},
		{"missing", good[:1], 0},
	}
	for _, tc := range bad {
		_, err := adsketch.NewCoordinator(tc.backends)
		if !errors.Is(err, adsketch.ErrBadOption) || !strings.Contains(err.Error(), fmt.Sprintf("shard %d", tc.shard)) {
			t.Errorf("%s: err = %v, want ErrBadOption naming shard %d", tc.name, err, tc.shard)
		}
	}
	for _, v := range []int32{-1, 10, 100} {
		_, err := coord.Do(context.Background(), adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{v}}})
		if !errors.Is(err, adsketch.ErrBadRequest) {
			t.Errorf("node %d: err = %v, want ErrBadRequest", v, err)
		}
	}
}

// The race-condition satellite: many goroutines driving DoBatch through
// the coordinator (per-shard engines, concurrent scatters, shared
// caches) must be data-race free and agree with the single engine.
// Run with -race in CI.
func TestCoordinatorConcurrentDoBatch(t *testing.T) {
	eng, coord := buildCluster(t)
	ctx := context.Background()
	reqs := parityRequests()
	want, err := eng.DoBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := make([]string, len(want))
	for i := range want {
		b, _ := json.Marshal(want[i])
		wantJSON[i] = string(b)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				got, err := coord.DoBatch(ctx, reqs)
				if err != nil {
					errs <- err
					return
				}
				for i := range got {
					b, _ := json.Marshal(got[i])
					if string(b) != wantJSON[i] {
						errs <- fmt.Errorf("goroutine %d iter %d request %s: %s != %s", w, iter, reqs[i].ID, b, wantJSON[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The shared cache stats must aggregate across the per-partition
	// engines: everything queried, so every slot eventually builds.
	st := coord.CacheStats()
	if st.Slots != coord.NumNodes() || st.Built == 0 || st.Hits == 0 {
		t.Errorf("aggregated cache stats: %+v", st)
	}
}
