package lab

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"adsketch"
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
var dpDigests = []struct {
	graph  string
	k      int
	seed   uint64
	baseB  float64
	digest string
}{
	{"ba", 1, 42, 0, "14011b1b6cff94b6"},
	{"ba", 3, 42, 0, "368c174ba5ab8125"},
	{"ba", 8, 42, 0, "637181e80bcc7bcc"},
	{"complete-tiny", 1, 42, 0, "59b28ee72186622e"},
	{"complete-tiny", 3, 42, 0, "390618c8c29df41d"},
	{"complete-tiny", 8, 42, 0, "507428eefff398cf"},
	{"cycle", 1, 42, 0, "482f09006f9dc819"},
	{"cycle", 3, 42, 0, "2e36621790e367e5"},
	{"cycle", 8, 42, 0, "250cfa0039038c46"},
	{"disconnected", 1, 42, 0, "2b4e73a2a8b6271b"},
	{"disconnected", 3, 42, 0, "27475c13914990c3"},
	{"disconnected", 8, 42, 0, "c7ae763d93f7bdb7"},
	{"gnp", 1, 42, 0, "76442dddc40f3d2f"},
	{"gnp", 3, 42, 0, "f4b15e31ab8d83ee"},
	{"gnp", 8, 42, 0, "4c4c471a6abeeabe"},
	{"gnp-directed", 1, 42, 0, "8584c2a39573b4cf"},
	{"gnp-directed", 3, 42, 0, "fe69d02463fcd075"},
	{"gnp-directed", 8, 42, 0, "6eedef0d1448c433"},
	{"grid", 1, 42, 0, "51f8cd66e7be861c"},
	{"grid", 3, 42, 0, "941e27c62c1bbf9e"},
	{"grid", 8, 42, 0, "e37ae4c6c789f494"},
	{"path", 1, 42, 0, "049644f18ea92e74"},
	{"path", 3, 42, 0, "babdef4ae11d07c5"},
	{"path", 8, 42, 0, "938d25413e2d6d91"},
	{"singleton", 1, 42, 0, "79fa2d9b5a8326d8"},
	{"singleton", 3, 42, 0, "6d964765f61a5268"},
	{"singleton", 8, 42, 0, "a60efb1cb2ad10d8"},
	{"star", 1, 42, 0, "3f89f5aacccd5fba"},
	{"star", 3, 42, 0, "cdb089140e8b4c0d"},
	{"star", 8, 42, 0, "a53d02d0c793dc27"},
	{"tree", 1, 42, 0, "3ee03319d9cc7dfd"},
	{"tree", 3, 42, 0, "335c363b2eb7f1cf"},
	{"tree", 8, 42, 0, "28155dbfeebdf46b"},
	{"two-node", 1, 42, 0, "f9849224e58ae8ae"},
	{"two-node", 3, 42, 0, "290e2f00f4b7e620"},
	{"two-node", 8, 42, 0, "ff3a2e5ae960effb"},
	{"multi-edge", 2, 13, 0, "2eba660fd7e06396"},
	{"gnp-b", 4, 77, 2, "7cc184e5e158c663"},
	{"grid-b", 4, 77, 2, "7e11d84e1f61a0a1"},
	{"gnp-b", 4, 77, 1.5, "76383c8058cacd34"},
	{"grid-b", 4, 77, 1.5, "a828f7e103a91fc1"},
	{"empty", 2, 1, 0, "e7a7d4b8d415dbfd"},
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
		sum := sha256.Sum256(got)
		if d := hex.EncodeToString(sum[:8]); d != c.digest {
			t.Errorf("%s k=%d b=%g: digest %s, recorded %s", c.graph, c.k, c.baseB, d, c.digest)
		}
	}
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
