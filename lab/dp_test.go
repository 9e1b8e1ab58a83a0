package lab

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"adsketch"
	"adsketch/internal/retired"
)

// dpGraphs are the unweighted graphs of core's builder-agreement tests,
// directed and multi-edge ones included, under the names dpDigests use.
func dpGraphs() map[string]*adsketch.Graph {
	multi := adsketch.NewGraphBuilder(5, false)
	for _, e := range [][2]int32{{0, 1}, {0, 1}, {1, 2}, {1, 2}, {3, 3}, {2, 3}, {3, 4}} {
		multi.AddEdge(e[0], e[1]) // parallel edges and a self loop
	}
	return map[string]*adsketch.Graph{
		"path":          adsketch.Path(40),
		"cycle":         adsketch.Cycle(37),
		"grid":          adsketch.Grid(7, 8),
		"gnp":           adsketch.GNP(120, 0.04, false, 5),
		"gnp-directed":  adsketch.GNP(100, 0.05, true, 6),
		"ba":            adsketch.PreferentialAttachment(150, 3, 7),
		"tree":          adsketch.RandomTree(90, 8),
		"disconnected":  adsketch.GNP(80, 0.01, false, 9),
		"star":          adsketch.Star(30),
		"two-node":      adsketch.Path(2),
		"singleton":     adsketch.Path(1),
		"complete-tiny": adsketch.Complete(6),
		"multi-edge":    multi.Build(),
		"gnp-b":         adsketch.GNP(100, 0.05, false, 21),
		"grid-b":        adsketch.Grid(6, 7),
		"empty":         adsketch.NewGraphBuilder(0, false).Build(),
	}
}

// dpDigests are the leading 16 hex digits of the SHA-256 of the v3 file of
// each DP build, recorded from the core DP builder the serving library
// held before it moved here, whose files were those of adsketch.Build.
// When node IDs became Rice-coded they were derived again from the files
// of the release before: its DP files (layout flags 0x1e, which hashed to
// the earlier digests) rewritten by adsconvert.  So they still pin what
// the DP built before the layout changed, not what this tree writes: since
// a uniform set's runs are coded in rank order, the file is rewritten in
// that 0x3e layout (riceLayout) before it is hashed.
var dpDigests = []struct {
	graph  string
	k      int
	seed   uint64
	baseB  float64
	digest string
}{
	{"ba", 1, 42, 0, "12c34301eaa1fc05"},
	{"ba", 3, 42, 0, "e84473aa578b1d78"},
	{"ba", 8, 42, 0, "914c3c9e0c16fd83"},
	{"complete-tiny", 1, 42, 0, "12b1a4ec4a2ff78b"},
	{"complete-tiny", 3, 42, 0, "d85bc10504496493"},
	{"complete-tiny", 8, 42, 0, "75181de599c07013"},
	{"cycle", 1, 42, 0, "6e662b3d415a0dde"},
	{"cycle", 3, 42, 0, "cbb17d90ed19c300"},
	{"cycle", 8, 42, 0, "9138e460cf562277"},
	{"disconnected", 1, 42, 0, "ea8056c75afb1010"},
	{"disconnected", 3, 42, 0, "0c1074beba9233f5"},
	{"disconnected", 8, 42, 0, "60d9bc49c2eb82d1"},
	{"gnp", 1, 42, 0, "b2ed5409db481ff1"},
	{"gnp", 3, 42, 0, "1beefec12c181695"},
	{"gnp", 8, 42, 0, "36f9c095dc833db2"},
	{"gnp-directed", 1, 42, 0, "e5f0ba847c4a12bb"},
	{"gnp-directed", 3, 42, 0, "76f9c46f1562d8c3"},
	{"gnp-directed", 8, 42, 0, "9d13d56ed0c81c8d"},
	{"grid", 1, 42, 0, "fb5dfc3dbf6dcc0b"},
	{"grid", 3, 42, 0, "f30dab78d606bc6c"},
	{"grid", 8, 42, 0, "4cefbcf1bc8cae17"},
	{"path", 1, 42, 0, "77663ea80b5bfc24"},
	{"path", 3, 42, 0, "278d37a0201ab568"},
	{"path", 8, 42, 0, "b369441d22ac2653"},
	{"singleton", 1, 42, 0, "2e7b189fd555687e"},
	{"singleton", 3, 42, 0, "237fd48dfd683fa4"},
	{"singleton", 8, 42, 0, "c7298e6df50141b5"},
	{"star", 1, 42, 0, "1e449517bca6e689"},
	{"star", 3, 42, 0, "ad7aae7d139064f7"},
	{"star", 8, 42, 0, "fed6efa19514a250"},
	{"tree", 1, 42, 0, "865993c5b9bfd090"},
	{"tree", 3, 42, 0, "3d93a414c2fd4118"},
	{"tree", 8, 42, 0, "063653211f75013c"},
	{"two-node", 1, 42, 0, "548d5d5158e07fb1"},
	{"two-node", 3, 42, 0, "cbcae131b16166ba"},
	{"two-node", 8, 42, 0, "d0797388f18e7853"},
	{"multi-edge", 2, 13, 0, "97ba8667b91d2ed9"},
	{"gnp-b", 4, 77, 2, "eb76fb372022eed2"},
	{"grid-b", 4, 77, 2, "f720c43218524b59"},
	{"gnp-b", 4, 77, 1.5, "fff2ff4e7855d9e7"},
	{"grid-b", 4, 77, 1.5, "294d852bbfe255d9"},
	{"empty", 2, 1, 0, "88a19682723c739b"},
}

// TestBuildDPMatchesBuild: the Section 3 dynamic program builds the sets
// adsketch.Build does (Algorithm 1), byte for byte, at full precision and
// base b, and the files it builds are the recorded ones.
func TestBuildDPMatchesBuild(t *testing.T) {
	graphs := dpGraphs()
	v3 := func(s *adsketch.Set) []byte {
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, c := range dpDigests {
		g := graphs[c.graph]
		dp, err := BuildDP(g, c.k, c.seed, c.baseB)
		if err != nil {
			t.Fatalf("%s k=%d b=%g: %v", c.graph, c.k, c.baseB, err)
		}
		opts := []adsketch.Option{adsketch.WithK(c.k), adsketch.WithSeed(c.seed)}
		if c.baseB != 0 {
			opts = append(opts, adsketch.WithBaseB(c.baseB))
		}
		want, err := adsketch.Build(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		got := v3(dp)
		if !bytes.Equal(got, v3(want)) {
			t.Errorf("%s k=%d b=%g: DP differs from Build", c.graph, c.k, c.baseB)
		}
		sum := sha256.Sum256(riceLayout(dp, got))
		if d := hex.EncodeToString(sum[:8]); d != c.digest {
			t.Errorf("%s k=%d b=%g: digest %s, recorded %s", c.graph, c.k, c.baseB, d, c.digest)
		}
	}
}

// riceLayout rewrites the v3 file data of a uniform set s in the layout
// the digests were recorded in, flags 0x3e: the node IDs' own Rice codes,
// where the current layout codes their rank-order positions.  The entries
// are the same, so the digests pin them still.
func riceLayout(s *adsketch.Set, data []byte) []byte {
	lists := make([][]retired.Entry, s.NumNodes())
	for v := range lists {
		for _, e := range s.BottomK(int32(v)).Entries() {
			lists[v] = append(lists[v], retired.Entry{Node: e.Node, Dist: e.Dist, Rank: e.Rank})
		}
	}
	return retired.Rice(data, lists)
}

func TestBuildDPRefuses(t *testing.T) {
	g := adsketch.Path(4)
	for name, err := range map[string]error{
		"weighted graph": func() error { _, err := BuildDP(adsketch.WithRandomWeights(g, 1, 2, 1), 2, 1, 0); return err }(),
		"k = 0":          func() error { _, err := BuildDP(g, 0, 1, 0); return err }(),
		"base 0.5":       func() error { _, err := BuildDP(g, 2, 1, 0.5); return err }(),
	} {
		if err == nil {
			t.Errorf("BuildDP on %s accepted", name)
		}
	}
}

// BenchmarkBuildDP is the DP row of the construction benchmarks beside
// the root package's BenchmarkBuilders (Algorithm 1) and
// internal/distbuild's (Algorithm 2): the same graphs, and the same sets.
func BenchmarkBuildDP(b *testing.B) {
	for name, g := range map[string]*adsketch.Graph{
		"ba-5k":   adsketch.PreferentialAttachment(5000, 4, 7),
		"grid-70": adsketch.Grid(70, 70),
		"gnp-5k":  adsketch.GNP(5000, 0.002, false, 7),
	} {
		for _, k := range []int{4, 16} {
			b.Run(fmt.Sprintf("%s/k=%d", name, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := BuildDP(g, k, 42, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
