package adsketch_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"adsketch"
)

// buildSet builds a deterministic small uniform set; different seeds
// yield different estimates for the same nodes, which the swap tests use
// to tell versions apart.
func buildSet(t testing.TB, seed uint64) adsketch.SketchSet {
	t.Helper()
	g := adsketch.PreferentialAttachment(400, 3, 6)
	set, err := adsketch.Build(g, adsketch.WithK(8), adsketch.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// writeV3 persists a set as a columnar v3 file under dir.
func writeV3(t testing.TB, dir, name string, set adsketch.SketchSet) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adsketch.WriteSketchSetV3(f, set); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// An empty Dataset field must keep the wire format bit-for-bit what it
// was before the catalog existed.
func TestRequestDatasetWireCompat(t *testing.T) {
	req := adsketch.Request{ID: "q1", Closeness: &adsketch.ClosenessQuery{Nodes: []int32{1, 2}}}
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"id":"q1","closeness":{"nodes":[1,2]}}`
	if string(payload) != want {
		t.Fatalf("empty-Dataset request marshals as %s, want %s", payload, want)
	}
	req.Dataset = "daily"
	payload, err = json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	want = `{"id":"q1","dataset":"daily","closeness":{"nodes":[1,2]}}`
	if string(payload) != want {
		t.Fatalf("named-dataset request marshals as %s, want %s", payload, want)
	}
}

// A dataset-routed query must be byte-identical to the same query on a
// standalone Engine over the same sketches.
func TestCatalogRoutingParity(t *testing.T) {
	set := buildSet(t, 42)
	eng, err := adsketch.NewEngine(set)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := adsketch.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if err := cat.Attach("graphs-2026-07", adsketch.SetSource(set)); err != nil {
		t.Fatal(err)
	}
	if err := cat.Attach(adsketch.DefaultDataset, adsketch.SetSource(set)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reqs := []adsketch.Request{
		{ID: "cl", Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0, 17, 399}}},
		{ID: "nh", Neighborhood: &adsketch.NeighborhoodQuery{Radius: 2.5, Nodes: []int32{3, 7}}},
		{ID: "tk", TopK: &adsketch.TopKQuery{Metric: adsketch.MetricHarmonic, K: 5}},
		{ID: "jc", Jaccard: &adsketch.JaccardQuery{A: 1, RadiusA: 3, B: 2, RadiusB: 3}},
	}
	for _, base := range reqs {
		want, err := eng.Do(ctx, base)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"", "graphs-2026-07", adsketch.DefaultDataset} {
			req := base
			req.Dataset = name
			got, err := cat.Do(ctx, req)
			if err != nil {
				t.Fatalf("dataset %q: %v", name, err)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(wantJSON) {
				t.Errorf("dataset %q, req %s: catalog answer %s, engine answer %s", name, base.ID, gotJSON, wantJSON)
			}
		}
	}
}

func TestCatalogLifecycleErrors(t *testing.T) {
	cat, err := adsketch.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	set := buildSet(t, 42)
	if err := cat.Attach("a", adsketch.SetSource(set)); err != nil {
		t.Fatal(err)
	}
	if err := cat.Attach("a", adsketch.SetSource(set)); !errors.Is(err, adsketch.ErrDatasetExists) {
		t.Errorf("double attach: %v, want ErrDatasetExists", err)
	}
	if err := cat.Attach("bad/name", adsketch.SetSource(set)); !errors.Is(err, adsketch.ErrBadOption) {
		t.Errorf("bad name: %v, want ErrBadOption", err)
	}
	if err := cat.Attach("", adsketch.SetSource(set)); !errors.Is(err, adsketch.ErrBadOption) {
		t.Errorf("empty name: %v, want ErrBadOption", err)
	}
	if err := cat.Attach("nilset", adsketch.SetSource(nil)); !errors.Is(err, adsketch.ErrBadOption) {
		t.Errorf("nil set: %v, want ErrBadOption", err)
	}
	if err := cat.Attach("noz", adsketch.Source{}); !errors.Is(err, adsketch.ErrBadOption) {
		t.Errorf("zero source: %v, want ErrBadOption", err)
	}
	if _, err := cat.Do(context.Background(), adsketch.Request{
		Dataset:   "missing",
		Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0}},
	}); !errors.Is(err, adsketch.ErrUnknownDataset) {
		t.Errorf("unknown dataset Do: %v, want ErrUnknownDataset", err)
	}
	// No default attached: the empty name resolves to "default" and fails.
	if _, err := cat.Do(context.Background(), adsketch.Request{
		Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0}},
	}); !errors.Is(err, adsketch.ErrUnknownDataset) {
		t.Errorf("missing default Do: %v, want ErrUnknownDataset", err)
	}
	if err := cat.Detach("missing"); !errors.Is(err, adsketch.ErrUnknownDataset) {
		t.Errorf("unknown detach: %v, want ErrUnknownDataset", err)
	}
	if err := cat.Detach("a"); err != nil {
		t.Fatal(err)
	}
	// Failed attaches leave nothing behind; after detaching "a" the
	// catalog must be empty.
	if got := cat.Datasets(); len(got) != 0 {
		t.Errorf("Datasets() = %v, want []", got)
	}
}

// Swap publishes atomically: a pinned handle keeps answering from the
// old version, new queries see the new version immediately, and stats
// report the drain until the pin drops.
func TestCatalogSwapPinnedDrain(t *testing.T) {
	setA, setB := buildSet(t, 42), buildSet(t, 1042)
	cat, err := adsketch.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if err := cat.Attach("d", adsketch.SetSource(setA)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := adsketch.Request{Dataset: "d", Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0, 7}}}
	engA, _ := adsketch.NewEngine(setA)
	engB, _ := adsketch.NewEngine(setB)
	wantA, err := engA.Closeness(ctx, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := engB.Closeness(ctx, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if wantA[0] == wantB[0] {
		t.Fatal("test sets indistinguishable; pick different seeds")
	}

	pinned, err := cat.Acquire("d")
	if err != nil {
		t.Fatal(err)
	}
	if pinned.Version() != 1 {
		t.Fatalf("pinned version %d, want 1", pinned.Version())
	}
	v, err := cat.Swap("d", adsketch.SetSource(setB))
	if err != nil || v != 2 {
		t.Fatalf("Swap = (%d, %v), want (2, nil)", v, err)
	}
	// New queries flip to version 2 at once.
	resp, err := cat.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Scores[0] != wantB[0] || resp.Scores[1] != wantB[1] {
		t.Errorf("post-swap answer %v, want new-version %v", resp.Scores, wantB)
	}
	// The pinned handle still answers from version 1.
	old, err := pinned.Backend().Do(ctx, adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0, 7}}})
	if err != nil {
		t.Fatal(err)
	}
	if old.Scores[0] != wantA[0] {
		t.Errorf("pinned answer %v, want old-version %v", old.Scores, wantA)
	}
	st := statsOf(t, cat, "d")
	if st.Draining != 1 || st.Version != 2 {
		t.Errorf("stats during drain: %+v", st)
	}
	pinned.Release()
	if st := statsOf(t, cat, "d"); st.Draining != 0 {
		t.Errorf("stats after drain: %+v", st)
	}
}

func statsOf(t testing.TB, cat *adsketch.Catalog, name string) adsketch.DatasetStats {
	t.Helper()
	for _, ds := range cat.Stats().Datasets {
		if ds.Name == name {
			return ds
		}
	}
	t.Fatalf("dataset %q not in stats", name)
	return adsketch.DatasetStats{}
}

// Swap-under-load coherence: every batch overlapping concurrent swaps
// answers all its requests from one version — old or new, never a mix.
// Run with -race.
func TestCatalogSwapUnderLoadBatchCoherence(t *testing.T) {
	setA, setB := buildSet(t, 42), buildSet(t, 1042)
	cat, err := adsketch.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if err := cat.Attach("d", adsketch.SetSource(setA)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	engA, _ := adsketch.NewEngine(setA)
	engB, _ := adsketch.NewEngine(setB)
	wantA, err := engA.Closeness(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := engB.Closeness(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if wantA[0] == wantB[0] {
		t.Fatal("test sets indistinguishable; pick different seeds")
	}

	reqs := []adsketch.Request{
		{ID: "a", Dataset: "d", Closeness: &adsketch.ClosenessQuery{Nodes: []int32{3}}},
		{ID: "b", Dataset: "d", Closeness: &adsketch.ClosenessQuery{Nodes: []int32{3}}},
		{ID: "c", Dataset: "d", Closeness: &adsketch.ClosenessQuery{Nodes: []int32{3}}},
	}
	var sawA, sawB atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resps, err := cat.DoBatch(ctx, reqs)
				if err != nil {
					t.Errorf("DoBatch: %v", err)
					return
				}
				for i, r := range resps {
					if r.Error != "" {
						t.Errorf("response %d failed: %s", i, r.Error)
						return
					}
					switch r.Scores[0] {
					case wantA[0]:
						sawA.Add(1)
					case wantB[0]:
						sawB.Add(1)
					default:
						t.Errorf("score %v matches neither version", r.Scores[0])
						return
					}
					if r.Scores[0] != resps[0].Scores[0] {
						t.Errorf("mixed versions within one batch: %v vs %v", r.Scores[0], resps[0].Scores[0])
						return
					}
				}
			}
		}()
	}
	sources := []adsketch.Source{adsketch.SetSource(setB), adsketch.SetSource(setA)}
	for i := 0; i < 40; i++ {
		if _, err := cat.Swap("d", sources[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if sawA.Load() == 0 || sawB.Load() == 0 {
		t.Logf("version coverage: old=%d new=%d (both>0 preferred; load/swap interleaving dependent)", sawA.Load(), sawB.Load())
	}
}

// Swapping an mmap'd dataset under load must never unmap pages a live
// query is reading (run with -race; a violation is a SIGSEGV or race
// report), and the retired file's mapping must be gone once drained.
func TestCatalogMmapSwapUnderLoad(t *testing.T) {
	dir := t.TempDir()
	pathA := writeV3(t, dir, "a.ads", buildSet(t, 42))
	pathB := writeV3(t, dir, "b.ads", buildSet(t, 1042))
	cat, err := adsketch.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if err := cat.Attach("d", adsketch.MmapSource(pathA)); err != nil {
		t.Fatal(err)
	}
	if st := statsOf(t, cat, "d"); !st.Mmap || st.FileVersion != adsketch.SketchFormatVersion {
		t.Fatalf("mmap attach stats: %+v", st)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := cat.Do(ctx, adsketch.Request{
					Dataset:      "d",
					Neighborhood: &adsketch.NeighborhoodQuery{Radius: 3, Nodes: []int32{0, 50, 399}},
				})
				if err != nil {
					t.Errorf("Do: %v", err)
					return
				}
				for _, s := range resp.Scores {
					if s < 0 {
						t.Errorf("negative estimate %v", s)
					}
				}
			}
		}()
	}
	paths := []string{pathB, pathA}
	for i := 0; i < 20; i++ {
		if _, err := cat.Swap("d", adsketch.MmapSource(paths[i%2])); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if st := statsOf(t, cat, "d"); st.Draining != 0 || st.Version != 21 {
		t.Errorf("post-load stats: %+v", st)
	}
}

// The memory budget evicts idle file-backed datasets LRU-first and
// reloads them transparently on the next query.
func TestCatalogEvictionBudget(t *testing.T) {
	dir := t.TempDir()
	set := buildSet(t, 42)
	fi, err := os.Stat(writeV3(t, dir, "cost.ads", set))
	if err != nil {
		t.Fatal(err)
	}
	cost := fi.Size() // a dataset is charged its frame: the file less its header
	paths := make([]string, 3)
	for i := range paths {
		paths[i] = writeV3(t, dir, fmt.Sprintf("d%d.ads", i), buildSet(t, uint64(42+100*i)))
	}
	// Room for two resident datasets, not three.
	cat, err := adsketch.NewCatalog(adsketch.WithMemoryBudget(2*cost + cost/2))
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	for i, p := range paths {
		if err := cat.Attach(fmt.Sprintf("d%d", i), adsketch.FileSource(p)); err != nil {
			t.Fatal(err)
		}
	}
	st := cat.Stats()
	if st.BudgetBytes == 0 || st.ResidentBytes > st.BudgetBytes {
		t.Fatalf("resident %d over budget %d", st.ResidentBytes, st.BudgetBytes)
	}
	resident := 0
	for _, ds := range st.Datasets {
		if !ds.Evictable {
			t.Errorf("file dataset %s not evictable: %+v", ds.Name, ds)
		}
		if ds.Resident {
			resident++
		}
	}
	if resident != 2 {
		t.Fatalf("%d resident datasets under budget, want 2: %+v", resident, st.Datasets)
	}
	if ds := statsOf(t, cat, "d0"); ds.Resident || ds.Evictions != 1 {
		t.Errorf("d0 (LRU) should be the evictee: %+v", ds)
	}
	// Querying the evicted dataset reloads it...
	resp, err := cat.Do(context.Background(), adsketch.Request{
		Dataset:   "d0",
		Closeness: &adsketch.ClosenessQuery{Nodes: []int32{1}},
	})
	if err != nil || resp.Error != "" {
		t.Fatalf("query against evicted dataset: %v %s", err, resp.Error)
	}
	// ...and once idle again the budget pushes out the new LRU (d1).
	if ds := statsOf(t, cat, "d0"); !ds.Resident {
		t.Errorf("d0 not resident after reload: %+v", ds)
	}
	if ds := statsOf(t, cat, "d1"); ds.Resident {
		t.Errorf("d1 should have been evicted after d0's reload: %+v", ds)
	}
	if st := cat.Stats(); st.ResidentBytes > st.BudgetBytes {
		t.Errorf("resident %d over budget %d after reload", st.ResidentBytes, st.BudgetBytes)
	}
	// In-memory datasets are not evictable, whatever the budget.
	if err := cat.Attach("mem", adsketch.SetSource(set)); err != nil {
		t.Fatal(err)
	}
	if ds := statsOf(t, cat, "mem"); ds.Evictable || !ds.Resident {
		t.Errorf("in-memory dataset: %+v", ds)
	}
}

// A partitioned source serves scatter-gather answers identical to the
// unsplit set, as one catalog entry.
func TestCatalogPartitionedSource(t *testing.T) {
	set := buildSet(t, 42)
	eng, err := adsketch.NewEngine(set)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := adsketch.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if err := cat.Attach("sharded", adsketch.SetSource(set).WithPartitions(4)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := adsketch.Request{TopK: &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 7}}
	want, err := eng.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	req.Dataset = "sharded"
	got, err := cat.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Ranking {
		if got.Ranking[i] != want.Ranking[i] {
			t.Errorf("ranking[%d] = %+v, want %+v", i, got.Ranking[i], want.Ranking[i])
		}
	}
	// A Coordinator can also be attached directly as a backend.
	coord, err := adsketch.NewPartitionedEngine(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.Attach("coord", adsketch.BackendSource(coord)); err != nil {
		t.Fatal(err)
	}
	req.Dataset = "coord"
	got2, err := cat.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Ranking[0] != want.Ranking[0] {
		t.Errorf("coordinator entry ranking[0] = %+v, want %+v", got2.Ranking[0], want.Ranking[0])
	}
	// A partition file serves as the shard it is, and does not split again.
	parts, err := adsketch.SplitSketchSet(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := writeV3(t, t.TempDir(), "p1of2.ads", parts[1])
	if err := cat.Attach("shard", adsketch.FileSource(path)); err != nil {
		t.Fatal(err)
	}
	if ds := statsOf(t, cat, "shard"); ds.Mode != "shard" || ds.Meta == nil || ds.Meta.Index != 1 || ds.Meta.Count != 2 || ds.Meta.Lo != parts[1].Lo() || ds.Meta.Hi != parts[1].Hi() {
		t.Errorf("partition file served as %+v (meta %+v)", ds, ds.Meta)
	}
	if err := cat.Attach("resplit", adsketch.FileSource(path).WithPartitions(2)); !errors.Is(err, adsketch.ErrBadOption) {
		t.Errorf("WithPartitions(2) over a partition file: %v, want ErrBadOption", err)
	}
}

// DoBatch reports unknown datasets per request without failing the batch
// and routes the rest.
func TestCatalogDoBatchMixedDatasets(t *testing.T) {
	setA, setB := buildSet(t, 42), buildSet(t, 1042)
	cat, err := adsketch.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if err := cat.Attach(adsketch.DefaultDataset, adsketch.SetSource(setA)); err != nil {
		t.Fatal(err)
	}
	if err := cat.Attach("b", adsketch.SetSource(setB)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	engA, _ := adsketch.NewEngine(setA)
	engB, _ := adsketch.NewEngine(setB)
	wantA, _ := engA.Closeness(ctx, 3)
	wantB, _ := engB.Closeness(ctx, 3)
	resps, err := cat.DoBatch(ctx, []adsketch.Request{
		{ID: "1", Closeness: &adsketch.ClosenessQuery{Nodes: []int32{3}}},
		{ID: "2", Dataset: "b", Closeness: &adsketch.ClosenessQuery{Nodes: []int32{3}}},
		{ID: "3", Dataset: "ghost", Closeness: &adsketch.ClosenessQuery{Nodes: []int32{3}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].Scores[0] != wantA[0] {
		t.Errorf("default-dataset score %v, want %v", resps[0].Scores[0], wantA[0])
	}
	if resps[1].Scores[0] != wantB[0] {
		t.Errorf("dataset b score %v, want %v", resps[1].Scores[0], wantB[0])
	}
	if resps[2].Error == "" || resps[2].ID != "3" {
		t.Errorf("unknown dataset in batch: %+v", resps[2])
	}
}
