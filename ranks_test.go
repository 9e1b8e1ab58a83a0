package adsketch_test

// Ranks are not stored: a frame derives each entry's rank from its seed
// when a view is asked for it.  The byte-parity suites (differential,
// distbuild, incremental) compare version-3 files, which therefore say
// nothing about ranks any more; this is where ranks stay covered.  Every
// way a set comes to exist is checked two ways: each rank a view reports
// is bit-equal to the rank source's, and everything a view computes from
// its ranks hashes to what the last commit that stored them produced
// (testdata/golden_ranks.json, recorded there with -update).

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"
	"os"
	"path/filepath"
	"testing"

	"adsketch"
	"adsketch/internal/core"
	"adsketch/internal/distbuild"
	"adsketch/internal/rank"
	"adsketch/lab"
)

const (
	ranksGoldenPath = "testdata/golden_ranks.json"
	ranksSeed       = 42
)

// ranksCase is one set and the rank its source gives entry node.
type ranksCase struct {
	name string
	set  adsketch.SketchSet
	want func(node int32) float64
}

func ranksCases(t *testing.T) []ranksCase {
	t.Helper()
	g := adsketch.WithRandomWeights(adsketch.PreferentialAttachment(90, 3, 9), 0.5, 3, 5)
	n := g.NumNodes()
	src := rank.NewSource(ranksSeed)
	beta := make([]float64, n)
	for v := range beta {
		beta[v] = 0.5 + float64(v%5)
	}
	build := func(opts ...adsketch.Option) adsketch.SketchSet {
		set, err := adsketch.Build(g, append([]adsketch.Option{adsketch.WithK(4), adsketch.WithSeed(ranksSeed)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	approx, err := lab.BuildApprox(g, 4, ranksSeed, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	uniform := func(node int32) float64 { return src.Rank(int64(node)) }
	rounded := func(node int32) float64 { return rank.NewBaseB(2).Round(uniform(node)) }
	cases := []ranksCase{
		{"bottomk", build(), uniform},
		{"bottomk/base2", build(adsketch.WithBaseB(2)), rounded},
		{"weighted/exponential", build(adsketch.WithNodeWeights(beta)),
			func(node int32) float64 { return src.ExpRank(int64(node), beta[node]) }},
		{"weighted/priority", build(adsketch.WithNodeWeights(beta), adsketch.WithPriorityRanks()),
			func(node int32) float64 { return src.PriorityRank(int64(node), beta[node]) }},
		{"approx", approx, uniform},
	}

	// Ingest-frozen: build two thirds of the edges, stream the rest in.
	type edge struct {
		u, v int32
		w    float64
	}
	var edges []edge
	g.ForEachArc(func(u, v int32, w float64) {
		if u < v {
			edges = append(edges, edge{u, v, w})
		}
	})
	gb := adsketch.NewGraphBuilder(n, false)
	cut := 2 * len(edges) / 3
	for _, e := range edges[:cut] {
		gb.AddWeightedEdge(e.u, e.v, e.w)
	}
	part := gb.Build()
	base, err := adsketch.Build(part, adsketch.WithK(4), adsketch.WithSeed(ranksSeed))
	if err != nil {
		t.Fatal(err)
	}
	in, err := adsketch.NewIngestor(part, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges[cut:] {
		if err := in.InsertWeighted(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	frozen, err := in.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, ranksCase{"ingest-frozen", frozen.Set, uniform})

	// Distbuild-frozen: three workers over the edge-list file.
	path := filepath.Join(t.TempDir(), "g.txt")
	var buf bytes.Buffer
	if err := adsketch.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	exs, err := distbuild.NewLocalExchangers(distbuild.Spec{
		Path: path, N: n, K: 4, Seed: ranksSeed, Kind: distbuild.KindUniform, Parts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := distbuild.Run(context.Background(), exs)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*adsketch.Set, len(res.Partitions))
	for i, b := range res.Partitions {
		if parts[i], err = adsketch.ReadSketchSet(bytes.NewReader(b)); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := adsketch.MergeSketchSets(parts)
	if err != nil {
		t.Fatal(err)
	}
	return append(cases, ranksCase{"distbuild-frozen/p3", merged, uniform})
}

// entriesOf returns a view's entries, read both ways a view offers them.
func entriesOf(t *testing.T, s adsketch.NodeSketch) (byIndex, bulk []core.Entry) {
	t.Helper()
	x, ok := s.(interface {
		EntryAt(int) core.Entry
		Entries() []core.Entry
	})
	if !ok {
		t.Fatalf("unknown sketch view %T", s)
	}
	byIndex = make([]core.Entry, s.Size())
	for i := range byIndex {
		byIndex[i] = x.EntryAt(i)
	}
	return byIndex, x.Entries()
}

func TestFrameRanksDerived(t *testing.T) {
	got := map[string]map[string]string{}
	for _, c := range ranksCases(t) {
		entries, thresholds, hip, sketches := sha256.New(), sha256.New(), sha256.New(), sha256.New()
		put := func(h hash.Hash, vals ...float64) {
			for _, v := range vals {
				binary.Write(h, binary.LittleEndian, math.Float64bits(v))
			}
		}
		eng, err := adsketch.NewEngine(c.set)
		if err != nil {
			t.Fatal(err)
		}
		for v := int32(0); int(v) < c.set.NumNodes(); v++ {
			view := c.set.SketchOf(v)
			byIndex, bulk := entriesOf(t, view)
			if len(byIndex) != len(bulk) {
				t.Fatalf("%s: node %d: EntryAt yields %d entries, Entries %d", c.name, v, len(byIndex), len(bulk))
			}
			for i, e := range byIndex {
				if want := c.want(e.Node); math.Float64bits(e.Rank) != math.Float64bits(want) {
					t.Fatalf("%s: node %d entry %d (node %d): rank %v, the rank source gives %v", c.name, v, i, e.Node, e.Rank, want)
				}
				if e != bulk[i] {
					t.Fatalf("%s: node %d entry %d: EntryAt %+v, Entries %+v", c.name, v, i, e, bulk[i])
				}
				put(entries, float64(e.Node), e.Dist, e.Rank)
			}
			for _, e := range view.HIPEntries() {
				put(hip, float64(e.Node), e.Dist, e.Weight)
			}
			put(hip, view.EstimateNeighborhood(2))
			a, ok := view.(*core.ADS)
			if !ok {
				continue
			}
			// The inclusion threshold after the last entry: the k-th
			// smallest rank of the sketch, 1 while it holds fewer.
			threshold := 1.0
			if mh := a.MinHashWithin(math.Inf(1)); len(mh) == a.K() {
				threshold = mh[a.K()-1]
			}
			put(thresholds, threshold)
			put(thresholds, a.MinHashWithin(2)...)
			if err := a.Validate(); err != nil && c.name != "approx" {
				t.Fatalf("%s: %v", c.name, err)
			}
			if c.set.Params().Kind == core.KindUniform {
				resp, err := eng.Do(context.Background(), adsketch.Request{Sketch: &adsketch.SketchQuery{Node: v}})
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.Marshal(resp)
				if err != nil {
					t.Fatal(err)
				}
				sketches.Write(raw)
			}
		}
		sum := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }
		got[c.name] = map[string]string{
			"entries": sum(entries), "thresholds": sum(thresholds), "hip_entries": sum(hip), "sketch_json": sum(sketches),
		}
	}

	if *updateGolden {
		payload, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ranksGoldenPath, append(payload, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d sets)", ranksGoldenPath, len(got))
		return
	}
	payload, err := os.ReadFile(ranksGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(payload, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file records %d sets, the test builds %d", len(want), len(got))
	}
	for name, digests := range got {
		for what, d := range digests {
			if want[name][what] != d {
				t.Errorf("%s: %s hash to %s, stored ranks gave %s", name, what, d, want[name][what])
			}
		}
	}
}
