package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"adsketch/internal/graph"
	"adsketch/internal/retired"
)

// retiredAs rewrites a file of the current layout in a retired one with
// write, that layout's one writer (internal/retired), which the legacy
// reader's tests use too: the readers here refuse what it writes.
func retiredAs(t testing.TB, data []byte, write func([]byte, [][]retired.Entry) []byte) []byte {
	t.Helper()
	set, err := openFrameBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	f := set.frame
	var rs rankScratch
	lists := make([][]retired.Entry, f.n)
	for v := range lists {
		c, _ := rs.filled(f.colsAt(v), f.nodesAt(v))
		for i, node := range c.node {
			lists[v] = append(lists[v], retired.Entry{Node: node, Dist: c.dist[i], Rank: c.rank[i]})
		}
	}
	return write(data, lists)
}

// legacyV3, perEntryV3, wideV3, plainV3, compactV3, riceV3 and rankedV3
// rewrite a file of the current layout in each retired one: flags 0x00
// (ranks stored), 0x02, 0x06, 0x0e, 0x1e, 0x3e (node IDs Rice-coded as
// they are, the layout weighted and approximate sets keep) and 0x7e (a
// uniform set's rank-order positions, one Rice parameter a run, the
// owner's code included).
func legacyV3(t testing.TB, data []byte) []byte   { return retiredAs(t, data, retired.Ranks) }
func perEntryV3(t testing.TB, data []byte) []byte { return retiredAs(t, data, retired.PerEntry) }
func wideV3(t testing.TB, data []byte) []byte     { return retiredAs(t, data, retired.Wide) }
func plainV3(t testing.TB, data []byte) []byte    { return retiredAs(t, data, retired.Plain) }
func compactV3(t testing.TB, data []byte) []byte  { return retiredAs(t, data, retired.Compact) }
func riceV3(t testing.TB, data []byte) []byte     { return retiredAs(t, data, retired.Rice) }
func rankedV3(t testing.TB, data []byte) []byte   { return retiredAs(t, data, retired.RankOrdered) }
func adaptiveV3(t testing.TB, data []byte) []byte { return retiredAs(t, data, retired.Adaptive) }

// v3Files returns the rank-free file of every set kind and of one
// partition.
func v3Files(t testing.TB) map[string][]byte {
	t.Helper()
	g := graph.PreferentialAttachment(60, 3, 9)
	beta := make([]float64, g.NumNodes())
	for i := range beta {
		beta[i] = 1 + float64(i%7)
	}
	uniform, err := BuildSet(g, Options{K: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	base2, err := BuildSet(g, Options{K: 3, Seed: 42, BaseB: 2})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := BuildWeightedSetParallel(g, 4, 42, beta, PriorityWeights, 0)
	if err != nil {
		t.Fatal(err)
	}
	approx := approxFixture(t, "pa60_k4") // of g
	files := map[string][]byte{}
	for name, set := range map[string]*Set{"uniform": uniform, "uniform-base2": base2, "weighted": weighted, "approx": approx} {
		var buf bytes.Buffer
		if _, err := set.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		files[name] = buf.Bytes()
	}
	parts, err := SplitSketchSet(weighted, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := parts[1].WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	files["weighted-partition"] = buf.Bytes()
	if parts, err = SplitSketchSet(uniform, 2); err != nil {
		t.Fatal(err)
	}
	var ubuf bytes.Buffer
	if _, err := parts[1].WriteTo(&ubuf); err != nil {
		t.Fatal(err)
	}
	files["uniform-partition"] = ubuf.Bytes()
	return files
}

// TestV3Layout pins what a file costs: the header, and — each rounded up
// to a word for the set — the offsets in the bits of the entry count, the
// bits of the largest node ID and one more an entry (8 bytes more with β),
// and the distance steps as codes in the bits of their distinct count and
// that many floats, or as a float each where that is no larger — the pin
// that keeps a column from coming back or growing.
func TestV3Layout(t *testing.T) {
	for name, data := range v3Files(t) {
		set, err := openFrameBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		header := int64(framePreambleSize + frameHdrSize)
		if set.IsPartition() {
			header += framePartHdrSize
		}
		f := set.frame
		e := int64(f.totalEntries())
		if f.total != 60 {
			t.Fatalf("%s: frame of a %d-node set, want 60", name, f.total)
		}
		want, plain, steps, coded := referenceSizes(f, set.IsPartition())
		if int64(len(data)) != want {
			t.Errorf("%s: file is %d bytes, want %d (n=%d e=%d steps=%d distinct=%d)", name, len(data), want, f.n, e, steps, coded)
		}
		flags := binary.LittleEndian.Uint32(data[12:])
		if flags&frameFlagPackedNodes == 0 || flags&frameFlagCompact == 0 || flags&frameFlagRiceNodes == 0 {
			t.Errorf("%s: written without packed nodes, compact columns or Rice-coded nodes (flags %#x)", name, flags)
		}
		if flags&frameFlagDerivedRanks == 0 {
			t.Errorf("%s: written with a rank column", name)
		}
		if flags&frameFlagStepDists == 0 || binary.LittleEndian.Uint64(data[header-8:]) != uint64(steps) || binary.LittleEndian.Uint64(data[header:]) != uint64(coded) {
			t.Errorf("%s: written without the step code, or with the wrong step or dictionary count in its header", name)
		}
		// The layouts before it: 64 bits an offset and a float a step...
		if got := int64(len(plainV3(t, data))); got != plain || got <= want {
			t.Errorf("%s: the layout before compact columns is %d bytes, want %d and more than %d", name, got, plain, want)
		}
		// ... 32 bits an ID ...
		bits := 8 * ((e + 63) / 64)
		fixed := plain - 8*((e*6+63)/64) - bits - 8*steps + pad8(4*e)
		if got := int64(len(wideV3(t, data))); got != fixed+bits+8*steps || got <= plain {
			t.Errorf("%s: the 32-bit-ID layout is %d bytes, want %d and more than %d", name, got, fixed+bits+8*steps, plain)
		}
		// ... a distance an entry, and a rank.
		if got := int64(len(perEntryV3(t, data))); got != fixed+8*e {
			t.Errorf("%s: the per-entry layout is %d bytes, want %d", name, got, fixed+8*e)
		}
		if got := int64(len(legacyV3(t, data))); got != fixed+16*e {
			t.Errorf("%s: the legacy layout is %d bytes, want %d", name, got, fixed+16*e)
		}
	}
}

// TestV3BodySizeGuardsColumns: a header that misdescribes which columns
// follow is caught by the body-size check before any column is read, and
// the streaming reader agrees.  (internal/legacy's test of this name has
// the same for the layouts it reads.)
func TestV3BodySizeGuardsColumns(t *testing.T) {
	weighted := v3Files(t)["weighted"]
	entries := int(binary.LittleEndian.Uint64(weighted[framePreambleSize+48:]))
	data := weighted[:len(weighted)-8*entries] // flagged weighted without β
	if _, err := openFrameBytes(data); err == nil || !strings.Contains(err.Error(), "header implies") {
		t.Errorf("flagged weighted without β: got %v, want the body-size error", err)
	}
	if _, err := ReadSketchSet(bytes.NewReader(data)); err == nil {
		t.Errorf("flagged weighted without β: accepted by the streaming reader")
	}
}

// TestFreezeRejectsForeignRank: a frame keeps no ranks, so the freeze paths
// that take caller-built lists refuse an entry whose Rank is not the one
// the seed derives — a frame cannot disagree with its own seed.
func TestFreezeRejectsForeignRank(t *testing.T) {
	g := graph.PreferentialAttachment(30, 3, 9)
	beta := make([]float64, 30)
	for i := range beta {
		beta[i] = 1 + float64(i%3)
	}
	o := Options{K: 4, Seed: 42}
	uniform, err := BuildSet(g, o)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := BuildWeightedSetParallel(g, 4, 42, beta, ExponentialWeights, 0)
	if err != nil {
		t.Fatal(err)
	}
	approx := approxFixture(t, "pa30_k4") // of g
	partition := func(set *Set) func([][]Entry, [][]float64) error {
		return func(lists [][]Entry, betas [][]float64) error {
			_, err := FreezePartition(set.Params(), 0, 1, 30, lists, betas)
			return err
		}
	}
	for _, tc := range []struct {
		name   string
		frame  *Frame
		freeze func(lists [][]Entry, betas [][]float64) error
	}{
		{"FreezeBottomK", uniform.frame, func(lists [][]Entry, _ [][]float64) error {
			_, err := FreezeBottomK(o, lists)
			return err
		}},
		{"FreezeBottomKOver", uniform.frame, func(lists [][]Entry, _ [][]float64) error {
			_, err := FreezeBottomKOver(uniform, 30, map[int32][]Entry{7: lists[7]})
			return err
		}},
		{"FreezePartition, uniform", uniform.frame, partition(uniform)},
		{"FreezePartition, weighted", weighted.frame, partition(weighted)},
		{"FreezePartition, approximate", approx.frame, partition(approx)},
	} {
		lists, betas := frameLists(tc.frame, 0, 30)
		if err := tc.freeze(lists, betas); err != nil {
			t.Fatalf("%s: the builder's own lists refused: %v", tc.name, err)
		}
		// A rank that still passes every structural check: the next float up.
		e := &lists[7][len(lists[7])-1]
		e.Rank = math.Nextafter(e.Rank, 0)
		if err := tc.freeze(lists, betas); err == nil || !strings.Contains(err.Error(), "seed derives") {
			t.Errorf("%s: foreign rank: got %v, want a refusal naming the derived rank", tc.name, err)
		}
	}
	// Another seed's ranks are foreign as a whole.
	lists, _ := frameLists(uniform.frame, 0, 30)
	if _, err := FreezeBottomK(Options{K: 4, Seed: 43}, lists); err == nil {
		t.Error("FreezeBottomK accepted lists built under another seed")
	}
}

// TestMergeRefusesMixedRanks: partitions that disagree on their seed do
// not merge — the merged frame would silently take partition 0's.
// (internal/legacy's test of this name merges one read from a file that
// stored its ranks.)
func TestMergeRefusesMixedRanks(t *testing.T) {
	g := graph.PreferentialAttachment(40, 3, 9)
	beta := make([]float64, 40)
	for i := range beta {
		beta[i] = 1 + float64(i%3)
	}
	split := func(seed uint64) []*Set {
		set, err := BuildWeightedSetParallel(g, 4, seed, beta, ExponentialWeights, 0)
		if err != nil {
			t.Fatal(err)
		}
		parts, err := SplitSketchSet(set, 2)
		if err != nil {
			t.Fatal(err)
		}
		return parts
	}
	a, b := split(42), split(43)
	if _, err := MergeSketchSets(a); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeSketchSets([]*Set{a[0], b[1]}); err == nil {
		t.Error("merged weighted partitions built under different seeds")
	}
}

// TestFreezeOverMatchesFreeze: freezing a few lists over a base is the set
// FreezeBottomK assembles from every list — runs of untouched nodes
// block-copied — with nodes the base lacks.  (internal/legacy's test of
// this name freezes over a base read from a file that stored its ranks.)
func TestFreezeOverMatchesFreeze(t *testing.T) {
	o := Options{K: 4, Seed: 42}
	base, err := BuildSet(graph.PreferentialAttachment(30, 3, 9), o)
	if err != nil {
		t.Fatal(err)
	}
	lists, _ := frameLists(base.frame, 0, 30)
	changed := map[int32][]Entry{}
	for _, v := range []int32{0, 3, 4, 17, 29} {
		changed[v] = lists[v]
	}
	for v := int32(30); v < 33; v++ { // three isolated newcomers
		l := []Entry{{Node: v, Dist: 0, Rank: o.rankFn()(v)}}
		lists, changed[v] = append(lists, l), l
	}
	want, err := FreezeBottomK(o, lists)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FreezeBottomKOver(base, 33, changed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v3Bytes(t, got), v3Bytes(t, want)) {
		t.Error("frozen set differs from FreezeBottomK of the same lists")
	}
	delete(changed, 31)
	if _, err := FreezeBottomKOver(base, 33, changed); err == nil {
		t.Error("froze a set whose new node 31 has no entries")
	}
}
