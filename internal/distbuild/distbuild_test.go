package distbuild

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"adsketch/internal/core"
	"adsketch/internal/graph"
	"adsketch/internal/rank"
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

// buildReference is the set every worker count and transport must
// reproduce: the single-process core build for the exact kinds, and for
// the approximate kind, which no single-process serving build makes,
// distbuild's own one-worker run.
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
			s, err = core.BuildWeightedSetParallel(g, spec.K, spec.Seed, spec.Beta, core.PriorityWeights, 0)
		} else {
			s, err = core.BuildWeightedSetParallel(g, spec.K, spec.Seed, spec.Beta, core.ExponentialWeights, 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		return s
	default:
		spec.Parts = 1
		return mergedSet(t, runLocal(t, spec))
	}
}

// mergedSet reads a build's partition files back and merges them into the
// whole set.
func mergedSet(t *testing.T, res *Result) *core.Set {
	t.Helper()
	parts := make([]*core.Set, len(res.Partitions))
	for i, b := range res.Partitions {
		p, err := core.ReadSketchSet(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = p
	}
	s, err := core.MergeSketchSets(parts)
	if err != nil {
		t.Fatal(err)
	}
	return s
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
// byte-identical to splitting the single-process build (for the
// approximate kind, its own one-worker build: every P writes the same
// bytes).
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
// what each worker holds: with 4 workers, each holds only its quarter's
// arcs and sketch entries, never the whole graph or set.
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
		st := holdings(ex.(*Worker))
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

// workerHoldings sizes a worker's slice of the graph and the set.
type workerHoldings struct{ OwnedNodes, Arcs, Entries int }

func holdings(w *Worker) workerHoldings {
	h := workerHoldings{OwnedNodes: int(w.hi - w.lo)}
	for _, l := range w.lists {
		h.Entries += len(l)
	}
	for _, a := range w.in {
		h.Arcs += len(a)
	}
	return h
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
		"eps on exact":  {Path: "x", N: 10, K: 4, Parts: 2, Kind: KindUniform, Eps: 0.5},
		"k too large":   {Path: "x", N: 10, K: core.MaxK + 1, Parts: 2},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: spec %+v validated", name, bad)
		}
	}

	// A worker's weights are its own range's, checked against that range:
	// worker 1 of a 3-way split of 10 nodes owns [3, 6).
	beta := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	weighted := Spec{Path: "x", N: 10, K: 4, Parts: 3, Kind: KindWeighted, Beta: beta}
	ws, err := weighted.Worker(1)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ws.Beta) != "[4 5 6]" || ws.Validate() != nil {
		t.Errorf("worker 1 of 3 holds weights %v (%v), want [4 5 6]", ws.Beta, ws.Validate())
	}
	for name, mutate := range map[string]func(*WorkerSpec){
		"short beta":     func(ws *WorkerSpec) { ws.Beta = ws.Beta[:2] },
		"bad weight":     func(ws *WorkerSpec) { ws.Beta = []float64{4, -1, 6} },
		"index too high": func(ws *WorkerSpec) { ws.Index = 3 },
		"bad kind":       func(ws *WorkerSpec) { ws.Kind = 9 },
	} {
		bad := ws
		bad.Beta = slices.Clone(ws.Beta)
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: worker spec %+v validated", name, bad)
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

// TestDistBuildRefusesBadCandidates: a round whose inbox holds a candidate
// the worker cannot apply is refused, naming the worker, the round and the
// candidate, before any candidate of it is applied — so a refused [good,
// foreign] round leaves the worker's sketches exactly as a worker that
// never received it holds them.
func TestDistBuildRefusesBadCandidates(t *testing.T) {
	g := graph.GNP(20, 0.2, false, 1)
	path, _ := writeGraph(t, g)
	newWorker := func(spec Spec) *Worker {
		t.Helper()
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
		return w
	}
	uniform := Spec{Path: path, N: 20, K: 4, Seed: 1, Kind: KindUniform, Parts: 2}
	weighted := uniform
	weighted.Kind, weighted.Scheme, weighted.Beta = KindWeighted, core.ExponentialWeights, betaFor(20)
	approx := uniform
	approx.Kind, approx.Eps = KindApprox, 0.25
	whole := uniform.worker(0, 1, nil)
	good := Candidate{Target: 0, Node: 9, Dist: 0.5, Rank: whole.params().Ranker()(9, 0)}
	for _, c := range []struct {
		name string
		spec Spec
		edit func(*Candidate)
	}{
		{"foreign target", uniform, func(c *Candidate) { c.Target = 19 }},
		{"negative node", uniform, func(c *Candidate) { c.Node = -1 }},
		{"node past N", uniform, func(c *Candidate) { c.Node = 20 }},
		{"NaN distance", uniform, func(c *Candidate) { c.Dist = math.NaN() }},
		{"zero distance", uniform, func(c *Candidate) { c.Dist = 0 }},
		{"negative distance", uniform, func(c *Candidate) { c.Dist = -1 }},
		{"infinite distance", uniform, func(c *Candidate) { c.Dist = math.Inf(1) }},
		{"NaN rank", uniform, func(c *Candidate) { c.Rank = math.NaN() }},
		{"zero rank", uniform, func(c *Candidate) { c.Rank = 0 }},
		{"uniform rank above 1", uniform, func(c *Candidate) { c.Rank = 1.5 }},
		{"approximate rank above 1", approx, func(c *Candidate) { c.Rank = 1.5 }},
		{"infinite weighted rank", weighted, func(c *Candidate) { c.Rank, c.Beta = math.Inf(1), 1 }},
		{"NaN weight", weighted, func(c *Candidate) { c.Beta = math.NaN() }},
		{"zero weight", weighted, func(c *Candidate) { c.Beta = 0 }},
	} {
		w := newWorker(c.spec)
		bad := good
		bad.Beta = 1
		c.edit(&bad)
		_, err := w.Step(context.Background(), 3, []Candidate{bad})
		if err == nil {
			t.Errorf("%s: candidate %+v accepted", c.name, bad)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "worker 0 round 3 refused candidate 0") {
			t.Errorf("%s: error %q does not name the worker, round and candidate", c.name, msg)
		}
	}

	// A refused round changes nothing, wherever the bad candidate sits.
	hit, untouched := newWorker(uniform), newWorker(uniform)
	if _, err := hit.Step(context.Background(), 1, []Candidate{good, {Target: 19, Node: 0, Dist: 1, Rank: 0.5}}); err == nil {
		t.Fatal("a round with a foreign candidate was accepted")
	}
	got, err := hit.Freeze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := untouched.Freeze(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("a refused round left the worker's sketches changed")
	}
}

// comb is the adversarial family of Section 3 for LocalUpdates: a
// directed chain c_0 → … → c_L of unit arcs (nodes 0..L), a hub x = L+1
// that every c_i reaches over a shortcut of length 2(L−i)+1, and m sinks
// behind x over unit arcs.  The shortcut of c_i is its longest path to x
// and the first to arrive; each round then brings x and its sinks one
// hop of the chain nearer, so exact sketches insert and supersede their
// entries for them L−i times.
func comb(l, m int) *graph.Graph {
	x := int32(l + 1)
	b := graph.NewBuilder(l+m+2, true)
	for i := int32(0); i < int32(l); i++ {
		b.AddWeightedEdge(i, i+1, 1)
	}
	for i := int32(0); i <= int32(l); i++ {
		b.AddWeightedEdge(i, x, float64(2*(l-int(i))+1))
	}
	for s := int32(0); s < int32(m); s++ {
		b.AddWeightedEdge(x, x+1+s, 1)
	}
	return b.Build()
}

// TestApproxCutsCandidatesOnComb records why the approximate kind stays
// in the distributed build: on the comb, where exact LocalUpdates
// supersedes its entries round after round, the (1+ε) rule moves fewer
// than a third of the candidates at the same P (162,951 against 15,689
// at ε = 0.25, k = 16, P = 2 when this was written).
func TestApproxCutsCandidatesOnComb(t *testing.T) {
	g := comb(100, 100)
	path, _ := writeGraph(t, g)
	spec := Spec{Path: path, Directed: true, N: g.NumNodes(), K: 16, Seed: testSeed, Parts: 2}
	exact := runLocal(t, spec)
	spec.Kind, spec.Eps = KindApprox, 0.25
	approx := runLocal(t, spec)
	t.Logf("comb(100, 100), k=16, P=2: exact %d candidates in %d rounds, ε=0.25 %d in %d",
		exact.Candidates, exact.Rounds, approx.Candidates, approx.Rounds)
	if exact.Candidates < 3*approx.Candidates {
		t.Errorf("exact build moved %d candidates, ε=0.25 %d: want at least 3× fewer", exact.Candidates, approx.Candidates)
	}
}

// TestApproxSlackAndSize checks distbuild's approximate sets against the
// exact ones: an absent node is always justified by k smaller ranks within
// a compounded slack window — the paper remarks (1+ε); a chain of rejected
// insertions can stack a few factors, so (1+ε)³ is pinned — and a set
// holds at most twice the exact set's entries.
func TestApproxSlackAndSize(t *testing.T) {
	g := graph.WithRandomWeights(graph.GNP(100, 0.06, false, 91), 1, 8, 92)
	path, g2 := writeGraph(t, g)
	exact, err := core.BuildSet(g2, core.Options{K: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.1, 0.5} {
		set := mergedSet(t, runLocal(t, Spec{Path: path, N: g.NumNodes(), K: 4, Seed: 13, Kind: KindApprox, Eps: eps, Parts: 2}))
		bound := (1 + eps) * (1 + eps) * (1 + eps)
		worst := 1.0
		for v := int32(0); int(v) < g2.NumNodes(); v++ {
			worst = max(worst, approxSlack(g2, set, v, 13))
		}
		if worst > bound {
			t.Errorf("eps=%g: worst exclusion slack %.3f above (1+eps)^3 = %.3f", eps, worst, bound)
		}
		if set.TotalEntries() > 2*exact.TotalEntries() {
			t.Errorf("eps=%g: approx entries %d vs exact %d", eps, set.TotalEntries(), exact.TotalEntries())
		}
		est := core.EstimateNeighborhoodHIP(set.SketchOf(0), math.Inf(1))
		n := float64(len(graph.NearestOrder(g2, 0))) // the nodes 0 reaches
		if math.Abs(est-n)/n > 1.0 {
			t.Errorf("eps=%g: full-reach estimate %g vs %g", eps, est, n)
		}
	}
}

// approxSlack is the worst factor by which ADS(u) of set needs its
// distance window stretched to justify leaving a reachable node out: the
// window within which k entries of smaller rank than the node's lie, over
// the node's true distance; +Inf when no window justifies it.
func approxSlack(g *graph.Graph, set *core.Set, u int32, seed uint64) float64 {
	src := rank.NewSource(seed)
	entries := set.BottomK(u).Entries()
	members := make(map[int32]bool, len(entries))
	for _, e := range entries {
		members[e.Node] = true
	}
	worst := 1.0
	for _, nd := range graph.NearestOrder(g, u) {
		if members[nd.Node] || nd.Dist == 0 {
			continue
		}
		r := src.Rank(int64(nd.Node))
		smaller, justified := 0, false
		for _, e := range entries { // canonical order = ascending dist
			if e.Rank < r {
				smaller++
			}
			if smaller >= set.K() {
				worst = max(worst, e.Dist/nd.Dist)
				justified = true
				break
			}
		}
		if !justified {
			return math.Inf(1)
		}
	}
	return worst
}

// TestDistBuildRoundsPinned pins every kind's per-round outcome on one
// fixed graph, lengths drawn from [0.25, 4): the rounds until convergence
// and the candidates exchanged, the same at P = 1, 2 and 4 and over HTTP.
// Those two figures were recorded when a round still offered its inbox to
// the sketches one candidate at a time, in (dist, target, node) order, so
// a change to how a round applies its inbox that accepts different
// candidates shows here even when the files still agree.  The entries the
// workers' offer rule read are pinned too, as a merge of each target's
// slice reads them.
func TestDistBuildRoundsPinned(t *testing.T) {
	g := graph.WithRandomWeights(graph.GNP(150, 0.04, false, 13), 0.25, 4.0, 17)
	path, _ := writeGraph(t, g)
	for _, c := range []struct {
		name       string
		spec       Spec
		rounds     int
		candidates int64
		examined   int64
	}{
		{"uniform", Spec{Kind: KindUniform}, 10, 44754, 70803},
		{"weighted", Spec{Kind: KindWeighted, Scheme: core.ExponentialWeights, Beta: betaFor(150)}, 10, 45059, 71122},
		{"approx", Spec{Kind: KindApprox, Eps: 0.25}, 8, 36271, 1211906},
	} {
		for _, r := range []struct {
			parts int
			http  bool
		}{{1, false}, {2, false}, {4, false}, {2, true}} {
			spec := c.spec
			spec.Path, spec.N, spec.K, spec.Seed, spec.Parts = path, g.NumNodes(), 8, testSeed, r.parts
			run := runLocal
			if r.http {
				run = runHTTP
			}
			res := run(t, spec)
			if got, want := [3]int64{int64(res.Rounds), res.Candidates, res.Examined}, [3]int64{int64(c.rounds), c.candidates, c.examined}; got != want {
				t.Errorf("%s at P=%d (HTTP %v): rounds, candidates, examined = %v; want %v", c.name, r.parts, r.http, got, want)
			}
		}
	}
}

// TestRunExaminedUnknownThroughWrapper: an Exchanger that wraps a worker
// without forwarding Examined builds the same files, and Run reports the
// build's count as unknown (-1), never as a partial sum.
func TestRunExaminedUnknownThroughWrapper(t *testing.T) {
	g := graph.GNP(60, 0.08, false, 3)
	path, _ := writeGraph(t, g)
	spec := Spec{Path: path, N: g.NumNodes(), K: 4, Seed: testSeed, Parts: 2, Kind: KindUniform}
	want := runLocal(t, spec)
	exs, err := NewLocalExchangers(spec)
	if err != nil {
		t.Fatal(err)
	}
	exs[1] = struct{ Exchanger }{exs[1]}
	res, err := Run(context.Background(), exs)
	if err != nil {
		t.Fatal(err)
	}
	if want.Examined <= 0 || res.Examined != -1 {
		t.Fatalf("Examined = %d through a wrapper (%d without); want -1", res.Examined, want.Examined)
	}
	for i := range want.Partitions {
		if !bytes.Equal(res.Partitions[i], want.Partitions[i]) {
			t.Fatalf("partition %d differs through a wrapper", i)
		}
	}
}

// runHTTP is runLocal over HTTP: WorkerHandlers behind httptest servers,
// driven by HTTPExchangers.
func runHTTP(t *testing.T, spec Spec) *Result {
	t.Helper()
	urls := make([]string, spec.Parts)
	for i := range urls {
		mux := http.NewServeMux()
		NewWorkerHandler().Register(mux)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	exs, err := NewHTTPExchangers(spec, urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), exs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
