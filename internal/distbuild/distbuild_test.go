package distbuild

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"adsketch/internal/core"
	"adsketch/internal/graph"
)

const testSeed = 42

// writeGraph persists g as an edge-list file and reads it back, so the
// reference build and the workers consume the exact same bytes.
func writeGraph(t *testing.T, g *graph.Graph) (string, *graph.Graph) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	g2, err := graph.ReadEdgeList(rf, g.Directed())
	if err != nil {
		t.Fatal(err)
	}
	return path, g2
}

// refPartitionBytes builds the single-process reference: the set split
// into parts partitions, each serialized with Set.WriteTo.
func refPartitionBytes(t *testing.T, set *core.Set, parts int) [][]byte {
	t.Helper()
	ps, err := core.SplitSketchSet(set, parts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, parts)
	for i, p := range ps {
		var buf bytes.Buffer
		if _, err := p.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

func buildReference(t *testing.T, g *graph.Graph, spec Spec) *core.Set {
	t.Helper()
	switch spec.Kind {
	case KindUniform:
		s, err := core.BuildSet(g, core.Options{K: spec.K, Seed: spec.Seed})
		if err != nil {
			t.Fatal(err)
		}
		return s
	case KindWeighted:
		var (
			s   *core.Set
			err error
		)
		if spec.Scheme == core.PriorityWeights {
			s, err = core.BuildPriorityWeightedSet(g, spec.K, spec.Seed, spec.Beta)
		} else {
			s, err = core.BuildWeightedSet(g, spec.K, spec.Seed, spec.Beta)
		}
		if err != nil {
			t.Fatal(err)
		}
		return s
	default:
		s, err := core.BuildApproxSet(g, spec.K, spec.Seed, spec.Eps)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

func runLocal(t *testing.T, spec Spec) *Result {
	t.Helper()
	exs, err := NewLocalExchangers(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), exs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func betaFor(n int) []float64 {
	beta := make([]float64, n)
	for i := range beta {
		beta[i] = 0.5 + float64(i%7)
	}
	return beta
}

// testSpecs returns one spec per (graph shape, kind) combination, each
// paired with the in-memory graph the reference build uses.
func testSpecs(t *testing.T, k int) []struct {
	name string
	spec Spec
	g    *graph.Graph
} {
	t.Helper()
	und := graph.GNP(80, 0.06, false, 3)
	dir := graph.GNP(80, 0.06, true, 5)
	wtd := graph.WithRandomWeights(graph.GNP(80, 0.08, false, 9), 0.25, 4.0, 11)

	var out []struct {
		name string
		spec Spec
		g    *graph.Graph
	}
	add := func(name string, g *graph.Graph, spec Spec) {
		path, g2 := writeGraph(t, g)
		spec.Path = path
		spec.N = g.NumNodes()
		spec.K = k
		spec.Seed = testSeed
		spec.Directed = g.Directed()
		out = append(out, struct {
			name string
			spec Spec
			g    *graph.Graph
		}{name, spec, g2})
	}
	add("uniform-undirected", und, Spec{Kind: KindUniform})
	add("uniform-directed", dir, Spec{Kind: KindUniform})
	add("uniform-weighted-graph", wtd, Spec{Kind: KindUniform})
	add("weighted-exp", wtd, Spec{Kind: KindWeighted, Scheme: core.ExponentialWeights, Beta: betaFor(80)})
	add("weighted-priority", wtd, Spec{Kind: KindWeighted, Scheme: core.PriorityWeights, Beta: betaFor(80)})
	add("approx", und, Spec{Kind: KindApprox, Eps: 0.25})
	add("approx-weighted-graph", wtd, Spec{Kind: KindApprox, Eps: 0.25})
	return out
}

// TestDistBuildParity is the central acceptance test: for every kind,
// k, and worker count, the distributed build's partition files are
// byte-identical to splitting the single-process build.
func TestDistBuildParity(t *testing.T) {
	for _, k := range []int{8, 64} {
		for _, tc := range testSpecs(t, k) {
			ref := buildReference(t, tc.g, tc.spec)
			for _, parts := range []int{1, 2, 4} {
				spec := tc.spec
				spec.Parts = parts
				res := runLocal(t, spec)
				want := refPartitionBytes(t, ref, parts)
				for i := range want {
					if !bytes.Equal(res.Partitions[i], want[i]) {
						t.Errorf("%s k=%d P=%d: partition %d differs from single-process split (%d vs %d bytes)",
							tc.name, k, parts, i, len(res.Partitions[i]), len(want[i]))
					}
				}
				if res.Rounds < 1 || res.Candidates < 1 {
					t.Errorf("%s k=%d P=%d: implausible result %+v", tc.name, k, parts, res)
				}
			}
		}
	}
}

// scrambled delivers every inbox in reversed order, proving the
// worker's canonical re-sort makes the build immune to transport
// delivery order.
type scrambled struct{ inner Exchanger }

func (s *scrambled) Init(ctx context.Context) ([][]Candidate, error) { return s.inner.Init(ctx) }
func (s *scrambled) Step(ctx context.Context, round int, inbox []Candidate) ([][]Candidate, error) {
	rev := make([]Candidate, len(inbox))
	for i, c := range inbox {
		rev[len(inbox)-1-i] = c
	}
	return s.inner.Step(ctx, round, rev)
}
func (s *scrambled) Freeze(ctx context.Context) ([]byte, error) { return s.inner.Freeze(ctx) }

func TestDistBuildDeliveryOrderInvariance(t *testing.T) {
	for _, tc := range testSpecs(t, 8) {
		spec := tc.spec
		spec.Parts = 3
		exs, err := NewLocalExchangers(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range exs {
			exs[i] = &scrambled{inner: exs[i]}
		}
		res, err := Run(context.Background(), exs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := refPartitionBytes(t, buildReference(t, tc.g, tc.spec), 3)
		for i := range want {
			if !bytes.Equal(res.Partitions[i], want[i]) {
				t.Errorf("%s: partition %d differs under reversed delivery", tc.name, i)
			}
		}
	}
}

// TestDistBuildHTTPParity runs the wire transport end to end: real
// WorkerHandlers behind httptest servers, driven by HTTPExchangers.
func TestDistBuildHTTPParity(t *testing.T) {
	const parts = 3
	for _, tc := range testSpecs(t, 8) {
		spec := tc.spec
		spec.Parts = parts
		urls := make([]string, parts)
		for i := range urls {
			mux := http.NewServeMux()
			NewWorkerHandler().Register(mux)
			srv := httptest.NewServer(mux)
			defer srv.Close()
			urls[i] = srv.URL
		}
		exs, err := NewHTTPExchangers(spec, urls, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), exs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := refPartitionBytes(t, buildReference(t, tc.g, tc.spec), parts)
		for i := range want {
			if !bytes.Equal(res.Partitions[i], want[i]) {
				t.Errorf("%s: HTTP-built partition %d differs from single-process split", tc.name, i)
			}
		}
	}
}

// TestDistBuildMemoryScales pins the no-full-graph guarantee through
// worker stats: with 4 workers, each holds only its quarter's arcs and
// sketch entries, never the whole graph or set.
func TestDistBuildMemoryScales(t *testing.T) {
	g := graph.GNP(400, 0.02, false, 17)
	path, g2 := writeGraph(t, g)
	spec := Spec{Path: path, N: 400, K: 8, Seed: testSeed, Kind: KindUniform, Parts: 4}

	exs, err := NewLocalExchangers(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), exs); err != nil {
		t.Fatal(err)
	}
	ref, err := core.BuildSet(g2, core.Options{K: 8, Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	totalEntries := ref.TotalEntries()
	totalArcs := 0
	g2.ForEachArc(func(u, v int32, w float64) { totalArcs++ })

	sumEntries, sumArcs := 0, 0
	for i, ex := range exs {
		st := ex.(*Worker).Stats()
		if st.OwnedNodes != 100 {
			t.Fatalf("worker %d owns %d nodes, want 100", i, st.OwnedNodes)
		}
		if st.Entries >= totalEntries/2 {
			t.Errorf("worker %d holds %d entries, more than half the full set's %d — memory does not scale with the partition",
				i, st.Entries, totalEntries)
		}
		if st.Arcs >= totalArcs/2 {
			t.Errorf("worker %d holds %d arcs, more than half the graph's %d", i, st.Arcs, totalArcs)
		}
		if st.Offers < 1 || st.Accepts < 1 || st.MaxInbox < 1 {
			t.Errorf("worker %d has implausible stats %+v", i, st)
		}
		sumEntries += st.Entries
		sumArcs += st.Arcs
	}
	if sumEntries != totalEntries {
		t.Errorf("workers hold %d entries in total, full set has %d", sumEntries, totalEntries)
	}
	if sumArcs != totalArcs {
		t.Errorf("workers hold %d arcs in total, graph has %d", sumArcs, totalArcs)
	}
}

func TestDistBuildValidation(t *testing.T) {
	good := Spec{Path: "x", N: 10, K: 4, Parts: 2, Kind: KindUniform}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]Spec{
		"no path":       {N: 10, K: 4, Parts: 2},
		"zero nodes":    {Path: "x", K: 4, Parts: 2},
		"zero k":        {Path: "x", N: 10, Parts: 2},
		"too many":      {Path: "x", N: 3, K: 4, Parts: 4},
		"bad kind":      {Path: "x", N: 10, K: 4, Parts: 2, Kind: Kind(9)},
		"beta missing":  {Path: "x", N: 10, K: 4, Parts: 2, Kind: KindWeighted},
		"bad eps":       {Path: "x", N: 10, K: 4, Parts: 2, Kind: KindApprox, Eps: -1},
		"bad scheme":    {Path: "x", N: 10, K: 4, Parts: 2, Kind: KindWeighted, Scheme: 9, Beta: make([]float64, 10)},
		"negative beta": {Path: "x", N: 10, K: 4, Parts: 2, Kind: KindWeighted, Beta: make([]float64, 10)},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: spec %+v validated", name, bad)
		}
	}

	w, err := NewWorker(WorkerSpec{Path: "x", N: 10, K: 4, Parts: 2, Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(context.Background(), 1, nil); err == nil {
		t.Error("Step before Init succeeded")
	}
	if _, err := w.Freeze(context.Background()); err == nil {
		t.Error("Freeze before Init succeeded")
	}
	if _, err := w.Init(context.Background()); err == nil {
		t.Error("Init with a missing edge file succeeded")
	}
}

func TestDistBuildRejectsForeignCandidates(t *testing.T) {
	g := graph.GNP(20, 0.2, false, 1)
	path, _ := writeGraph(t, g)
	spec := Spec{Path: path, N: 20, K: 4, Seed: 1, Kind: KindUniform, Parts: 2}
	ws, err := spec.Worker(0)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(ws)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Init(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Step(context.Background(), 1, []Candidate{{Target: 19, Node: 0, Dist: 1, Rank: 0.5}}); err == nil {
		t.Error("worker 0 accepted a candidate for worker 1's node")
	}
}
