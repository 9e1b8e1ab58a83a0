package lab

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"adsketch"
	"adsketch/internal/retired"
)

// approxDigests are the leading 16 hex digits of the SHA-256 of the v3
// file of each BuildApprox build, and its entry count: digest in the
// current layout (recorded again when each sketch's counts and steps came
// inline in its bits, the retired digest unchanged), and retired in the
// 0x3e layout (internal/retired's writer of it), the one recorded from the
// core builder of the (1+ε) rounds the serving library held before they
// moved here — on a hop graph and on the same graph with random lengths,
// where the rule drops entries the exact build keeps.
var approxDigests = []struct {
	graph           string
	k               int
	seed            uint64
	eps             float64
	entries         int
	digest, retired string
}{
	{"pa300", 8, 42, 0, 12318, "0a4519a5d461ff3e", "f2616c04ad26e4b4"},
	{"pa300", 8, 42, 0.1, 12318, "30ca9ece2783660f", "cb3717f3b74df540"},
	{"pa300", 8, 42, 0.5, 12318, "20c50e33964cb76d", "b941ba614e14f315"},
	{"pa300-lengths", 8, 42, 0, 18677, "39ccdee53ddff082", "1dd6331f6f7ce023"},
	{"pa300-lengths", 8, 42, 0.1, 16851, "237e29bf7e254016", "c1519e790d6c0913"},
	{"pa300-lengths", 8, 42, 0.5, 13995, "96b164a77c493c51", "d762098c521c4f01"},
}

// TestBuildApproxMatchesRecordedDigests: BuildApprox writes, byte for
// byte, the files the serving library's approximate build wrote, in the
// layout it wrote them in.
func TestBuildApproxMatchesRecordedDigests(t *testing.T) {
	graphs := map[string]*adsketch.Graph{
		"pa300":         adsketch.PreferentialAttachment(300, 3, 7),
		"pa300-lengths": adsketch.WithRandomWeights(adsketch.PreferentialAttachment(300, 3, 7), 1, 10, 5),
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:8])
	}
	for _, c := range approxDigests {
		set, err := BuildApprox(graphs[c.graph], c.k, c.seed, c.eps)
		if err != nil {
			t.Fatalf("%s ε=%g: %v", c.graph, c.eps, err)
		}
		if p := set.Params(); p.Kind.String() != adsketch.KindApproximate || p.Eps != c.eps || set.IsPartition() {
			t.Errorf("%s ε=%g: a set of %+v", c.graph, c.eps, p)
		}
		if set.TotalEntries() != c.entries {
			t.Errorf("%s ε=%g: %d entries, recorded %d", c.graph, c.eps, set.TotalEntries(), c.entries)
		}
		var buf bytes.Buffer
		if _, err := set.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		lists := make([][]retired.Entry, set.NumNodes())
		for v := range lists {
			for _, e := range set.BottomK(int32(v)).Entries() {
				lists[v] = append(lists[v], retired.Entry{Node: e.Node, Dist: e.Dist, Rank: e.Rank})
			}
		}
		if d, r := digest(buf.Bytes()), digest(retired.Rice(buf.Bytes(), lists)); d != c.digest || r != c.retired {
			t.Errorf("%s ε=%g: digest %s, %s in the 0x3e layout; recorded %s, %s", c.graph, c.eps, d, r, c.digest, c.retired)
		}
	}
}

// TestBuildApproxEpsZeroHoldsExact: with ε = 0 and no clean-up the
// approximate sketch is a superset of the exact one — stale entries may
// linger, but every exact entry is there at its exact distance.
func TestBuildApproxEpsZeroHoldsExact(t *testing.T) {
	g := adsketch.WithRandomWeights(adsketch.GNP(80, 0.07, false, 21), 1, 3, 22)
	exact, err := adsketch.Build(g, adsketch.WithK(3), adsketch.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	set, err := BuildApprox(g, 3, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		members := map[int32]float64{}
		for _, e := range set.BottomK(v).Entries() {
			members[e.Node] = e.Dist
		}
		for _, e := range exact.BottomK(v).Entries() {
			d, ok := members[e.Node]
			if !ok {
				t.Fatalf("node %d: exact entry %d missing from approx set", v, e.Node)
			}
			if math.Abs(d-e.Dist) > 1e-9*(1+d+e.Dist) {
				t.Fatalf("node %d entry %d: dist %g vs exact %g", v, e.Node, d, e.Dist)
			}
		}
	}
}

func TestBuildApproxRefuses(t *testing.T) {
	g := adsketch.Path(4)
	for name, c := range map[string]struct {
		k   int
		eps float64
	}{
		"k = 0":        {0, 0.1},
		"k past 2^20":  {1<<20 + 1, 0.1},
		"negative eps": {2, -0.5},
		"NaN eps":      {2, math.NaN()},
		"infinite eps": {2, math.Inf(1)},
	} {
		if _, err := BuildApprox(g, c.k, 1, c.eps); err == nil {
			t.Errorf("BuildApprox with %s accepted", name)
		}
	}
}
