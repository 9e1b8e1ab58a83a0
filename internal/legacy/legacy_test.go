package legacy

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adsketch/internal/core"
	"adsketch/internal/graph"
	"adsketch/internal/retired"
	"adsketch/lab"
)

// v3Bytes returns the file WriteTo writes of s: the current layout.
func v3Bytes(t testing.TB, s *core.Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// read reads data, refusing the test on an error.
func read(t testing.TB, data []byte, seed *uint64) *core.Set {
	t.Helper()
	set, err := Read(bytes.NewReader(data), seed)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fixtureGraph is the graph every k=4 fixture was built on, `gen -type ba
// -n 60 -m 3 -seed 9`, with the weights 1+i%7 of the weighted ones.
func fixtureGraph() (*graph.Graph, []float64) {
	g := graph.PreferentialAttachment(60, 3, 9)
	beta := make([]float64, g.NumNodes())
	for i := range beta {
		beta[i] = 1 + float64(i%7)
	}
	return g, beta
}

// entries returns the entries, ranks included, of the sketch at local
// position v of set.
func entries(set *core.Set, v int32) []core.Entry {
	switch a := set.SketchOf(v).(type) {
	case *core.ADS:
		return a.Entries()
	case *core.WeightedADS:
		return a.Entries()
	}
	panic(fmt.Sprintf("entries: sketch of type %T", set.SketchOf(v)))
}

// retiredAs rewrites a file of the current layout in a retired one with
// write, that layout's one writer (internal/retired), which core's tests
// use too: Read reads what it writes.
func retiredAs(t testing.TB, data []byte, write func([]byte, [][]retired.Entry) []byte) []byte {
	t.Helper()
	set, err := core.ReadSketchSet(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	lists := make([][]retired.Entry, set.NumNodes())
	for v := range lists {
		for _, e := range entries(set, int32(v)) {
			lists[v] = append(lists[v], retired.Entry{Node: e.Node, Dist: e.Dist, Rank: e.Rank})
		}
	}
	return write(data, lists)
}

// legacyV3, perEntryV3, wideV3, plainV3, compactV3, riceV3, rankedV3 and
// adaptiveV3 rewrite a file of the current layout in each retired one:
// flags 0x00 (ranks stored, and no seed for a weighted or approximate
// set), 0x02, 0x06, 0x0e, 0x1e, 0x3e (node IDs Rice-coded as they are),
// 0x7e (a uniform set's rank-order positions, one Rice parameter a run,
// the owner's code included) and 0xfe (adapted parameters, the owner's
// code implied), the last three with step bits.
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
	g, beta := fixtureGraph()
	uniform, err := core.BuildSet(g, core.Options{K: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	base2, err := core.BuildSet(g, core.Options{K: 3, Seed: 42, BaseB: 2})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := core.BuildWeightedSetParallel(g, 4, 42, beta, core.PriorityWeights, 0)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := lab.BuildApprox(g, 4, 42, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for name, set := range map[string]*core.Set{"uniform": uniform, "uniform-base2": base2, "weighted": weighted, "approx": approx} {
		files[name] = v3Bytes(t, set)
	}
	parts, err := core.SplitSketchSet(weighted, 2)
	if err != nil {
		t.Fatal(err)
	}
	files["weighted-partition"] = v3Bytes(t, parts[1])
	if parts, err = core.SplitSketchSet(uniform, 2); err != nil {
		t.Fatal(err)
	}
	files["uniform-partition"] = v3Bytes(t, parts[1])
	return files
}

// checkNeedsSeed: Read refuses data, which stores its ranks but records no
// seed, naming the flag that takes one.
func checkNeedsSeed(t *testing.T, name string, data []byte) {
	t.Helper()
	if _, err := Read(bytes.NewReader(data), nil); err == nil || !strings.Contains(err.Error(), "adsconvert -seed") {
		t.Errorf("%s: %v, want a refusal naming adsconvert -seed", name, err)
	}
}

// v2Fixture is a committed version-2 file — recorded with the `adstool
// build -save` / `split` of the last release that wrote the format;
// nothing in this tree can — and the fresh deterministic build it must
// still equal.
type v2Fixture struct {
	file   string
	stored bool // a weighted or approximate v2 body records no seed: it is read under seed 42, or refused
	part   int  // the index the file holds of a 2-way split of its build, or -1 for the whole set
	build  func(g *graph.Graph, beta []float64) (*core.Set, error)
}

// Every fixture but the first is built on fixtureGraph with `-k 4 -seed
// 42`.
var v2Fixtures = []v2Fixture{
	{"uniform_v2_k8.ads", false, -1, func(*graph.Graph, []float64) (*core.Set, error) {
		return core.BuildSet(graph.PreferentialAttachment(200, 3, 7), core.Options{K: 8, Seed: 42})
	}},
	{"weighted_v2_k4.ads", true, -1, func(g *graph.Graph, beta []float64) (*core.Set, error) {
		return core.BuildWeightedSetParallel(g, 4, 42, beta, core.ExponentialWeights, 0)
	}},
	{"priority_v2_k4.ads", true, -1, func(g *graph.Graph, beta []float64) (*core.Set, error) {
		return core.BuildWeightedSetParallel(g, 4, 42, beta, core.PriorityWeights, 0)
	}},
	{"approx_v2_k4.ads", true, -1, func(g *graph.Graph, _ []float64) (*core.Set, error) {
		return lab.BuildApprox(g, 4, 42, 0.25)
	}},
	{"weighted_v2_k4.p1of2.ads", true, 1, func(g *graph.Graph, beta []float64) (*core.Set, error) {
		return core.BuildWeightedSetParallel(g, 4, 42, beta, core.ExponentialWeights, 0)
	}},
}

// fresh returns the fixture's fresh build (its partition of the build,
// for a partition fixture).
func fresh(t testing.TB, part int, build func(*graph.Graph, []float64) (*core.Set, error)) *core.Set {
	t.Helper()
	set, err := build(fixtureGraph())
	if err != nil {
		t.Fatal(err)
	}
	if part < 0 {
		return set
	}
	parts, err := core.SplitSketchSet(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	return parts[part]
}

// TestV2FixtureBackCompat: every committed version-2 file reads — as the
// whole set or partition it holds — as byte for byte the version-3 file
// of a fresh deterministic build, so neither the decoder nor the builders
// have moved since the files were recorded.  A weighted or approximate
// one records no seed: it is refused without one, naming the flag that
// takes it, and read with seed 42 it is the build's file.
func TestV2FixtureBackCompat(t *testing.T) {
	seed := uint64(42)
	for _, fx := range v2Fixtures {
		data := readFixture(t, fx.file)
		want := v3Bytes(t, fresh(t, fx.part, fx.build))
		given := (*uint64)(nil)
		if fx.stored {
			checkNeedsSeed(t, fx.file, data)
			given = &seed
		}
		set, err := Read(bytes.NewReader(data), given)
		if err != nil {
			t.Fatalf("%s: %v", fx.file, err)
		}
		if set.IsPartition() != (fx.part >= 0) {
			t.Errorf("%s: partition %v", fx.file, set.IsPartition())
		}
		if got := v3Bytes(t, set); !bytes.Equal(got, want) {
			t.Errorf("%s: not the v3 file of a fresh build (%d vs %d bytes)", fx.file, len(got), len(want))
		}
	}
}

// v3Fixture is a committed version-3 file in a layout an earlier release
// wrote, recorded with that release's `adstool build -save` / `split`;
// nothing in this tree writes it.
type v3Fixture struct {
	file  string
	part  int // the index the file holds of a 2-way split of its build, or -1
	build func(g *graph.Graph, beta []float64) (*core.Set, error)
}

// v3Fixtures names the committed files of one earlier layout that this
// tree still reads, tag being what their names carry for it.  All are
// built on fixtureGraph with `-k 4 -seed 42`.  (The layout's fourth file,
// kmins_base2_<tag>_k4.ads, holds k-mins sketches: TestRefusesOtherFlavors.)
func v3Fixtures(tag string) []v3Fixture {
	uniform := func(g *graph.Graph, _ []float64) (*core.Set, error) {
		return core.BuildSet(g, core.Options{K: 4, Seed: 42})
	}
	return []v3Fixture{
		{"uniform_" + tag + "_k4.ads", -1, uniform},
		{"uniform_" + tag + "_k4.p1of2.ads", 1, uniform},
		{"weighted_" + tag + "_k4.ads", -1, func(g *graph.Graph, beta []float64) (*core.Set, error) {
			return core.BuildWeightedSetParallel(g, 4, 42, beta, core.ExponentialWeights, 0)
		}},
	}
}

// TestV3PerEntryDistFixtures: the files of the last release before step
// coding — a distance per entry, 32 bits a node ID, flags bits 2 and 3
// clear.
func TestV3PerEntryDistFixtures(t *testing.T) {
	checkV3Fixtures(t, v3Fixtures("v3dist"), flagDerivedRanks, perEntryV3)
}

// TestV3WideNodeFixtures: the files of the last release before node IDs
// were packed — step-coded, 32 bits a node ID, flags bit 3 clear.
func TestV3WideNodeFixtures(t *testing.T) {
	checkV3Fixtures(t, v3Fixtures("v3step"), flagDerivedRanks|flagStepDists, wideV3)
}

// TestV3WideColumnFixtures: the files of the last release before the
// compact columns — step-coded, packed IDs, 64 bits an offset and a float
// a step, flags bit 4 clear.
func TestV3WideColumnFixtures(t *testing.T) {
	checkV3Fixtures(t, v3Fixtures("v3pack"), flagDerivedRanks|flagStepDists|flagPackedNodes, plainV3)
}

// TestV3CompactFixtures: the files of the last release before node IDs
// were Rice-coded — compact columns, IDs packed at the bits the node count
// needs, flags 0x1e.  (Its k-mins file is the repository's
// testdata/kmins_v3_k4.ads: TestRefusesOtherFlavors.)
func TestV3CompactFixtures(t *testing.T) {
	checkV3Fixtures(t, v3Fixtures("v3compact"), flagsCompact, compactV3)
}

// TestV3RiceFixtures: the files of the last release before a uniform
// set's runs were coded in rank order — its node IDs' own Rice codes, flags
// 0x3e, which weighted and approximate sets kept until run lengths replaced
// the step bits — whole and as a partition, and a weighted set's: Read
// turns them into the bytes a fresh build and split write, which is what
// adsconvert writes of them.
func TestV3RiceFixtures(t *testing.T) {
	checkV3Fixtures(t, v3Fixtures("v3rice"), flagsRice, riceV3)
}

// TestV3AdaptFixtures: the files of the last release before run lengths
// in the node stream and step offsets replaced the step bits — a uniform
// set's adapted rank-ordered codes, flags 0xfe — whole and as a partition,
// read as TestV3RiceFixtures' are; and an approximate set of that release,
// flags 0x3e (the 0.25-approximate build of fixtureGraph at `-k 4 -seed
// 42`, internal/core's testdata/approx_pa60_k4.ads before it was
// converted), reads as the converted file, byte for byte.
func TestV3AdaptFixtures(t *testing.T) {
	checkV3Fixtures(t, v3Fixtures("v3adapt")[:2], flagsRice|flagRankNodes|flagAdaptNodes, adaptiveV3)
	data := readFixture(t, "approx_v3rice_k4.ads")
	if flags := binary.LittleEndian.Uint32(data[12:]); flags != flagsRice {
		t.Fatalf("approx_v3rice_k4.ads: flags %#x, want %#x", flags, flagsRice)
	}
	want, err := os.ReadFile(filepath.Join("..", "core", "testdata", "approx_pa60_k4.ads"))
	if err != nil {
		t.Fatal(err)
	}
	if got := v3Bytes(t, read(t, data, nil)); !bytes.Equal(got, want) {
		t.Errorf("approx_v3rice_k4.ads: written back as %d bytes, not the %d of the converted file", len(got), len(want))
	}
	if !bytes.Equal(riceV3(t, want), data) {
		t.Error("approx_v3rice_k4.ads: the test's writer of that layout does not turn the converted file into the committed one")
	}
}

// TestAdaptedSparseSet: an adapted file's owners have no code, so a set
// of mostly isolated nodes — here 40 nodes and one edge — holds fewer
// bits of node codes than entries.  It reads, whole and as each
// partition, as the file a fresh build writes.
func TestAdaptedSparseSet(t *testing.T) {
	b := graph.NewBuilder(40, false)
	b.AddEdge(0, 1)
	set, err := core.BuildSet(b.Build(), core.Options{K: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := core.SplitSketchSet(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range append([]*core.Set{set}, parts...) {
		want := v3Bytes(t, s)
		old := adaptiveV3(t, want)
		if got := v3Bytes(t, read(t, old, nil)); !bytes.Equal(got, want) {
			t.Errorf("set %d: written back as %d bytes, not the %d a fresh build writes", i, len(got), len(want))
		}
	}
}

// TestV3RankFixtures: the files of the last release before the Rice
// parameters of a uniform set's rank-ordered runs adapted gap by gap and
// the owner's code was implied — one parameter a run, flags 0x7e — whole
// and as a partition: Read turns them into the bytes a fresh build and
// split write, which is what adsconvert writes of them.
func TestV3RankFixtures(t *testing.T) {
	checkV3Fixtures(t, v3Fixtures("v3rank")[:2], flagsRice|flagRankNodes, rankedV3)
}

// checkV3Fixtures: every committed file of an earlier layout (its flags,
// less the β bit, being layout) reads — the whole set or partition it
// holds, no seed needed — answering bit for bit like a fresh build, entry
// for entry, and is written back as the bytes a fresh build writes, which
// is what adsconvert does with it.  The fixtures also pin rewrite, the
// test-only writer of that layout, to what the release really wrote.
func checkV3Fixtures(t *testing.T, fixtures []v3Fixture, layout uint32, rewrite func(testing.TB, []byte) []byte) {
	for _, fx := range fixtures {
		data := readFixture(t, fx.file)
		if flags := binary.LittleEndian.Uint32(data[12:]); flags&^flagBeta != layout {
			t.Fatalf("%s: flags %#x: not a file of the layout with flags %#x", fx.file, flags, layout)
		}
		want := fresh(t, fx.part, fx.build)
		wantBytes := v3Bytes(t, want)
		if !bytes.Equal(rewrite(t, wantBytes), data) {
			t.Errorf("%s: the test's writer of that layout does not turn a fresh build into the committed file", fx.file)
		}
		got := read(t, data, nil)
		if got.IsPartition() != (fx.part >= 0) || got.NumNodes() != want.NumNodes() {
			t.Fatalf("%s: partition %v of %d nodes", fx.file, got.IsPartition(), got.NumNodes())
		}
		for v := int32(0); int(v) < want.NumNodes(); v++ {
			a, b := want.Index(v), got.Index(v)
			if a.Closeness() != b.Closeness() || a.Harmonic() != b.Harmonic() || a.Neighborhood(2) != b.Neighborhood(2) || a.Neighborhood(1e18) != b.Neighborhood(1e18) {
				t.Fatalf("%s: node %d answers differ from a fresh build's", fx.file, want.Lo()+v)
			}
			wantEntries, gotEntries := entries(want, v), entries(got, v)
			if len(wantEntries) != len(gotEntries) {
				t.Fatalf("%s: node %d sizes differ", fx.file, v)
			}
			for i, e := range wantEntries {
				if gotEntries[i] != e {
					t.Fatalf("%s: node %d entry %d: %+v, fresh build %+v", fx.file, v, i, gotEntries[i], e)
				}
			}
		}
		if b := v3Bytes(t, got); !bytes.Equal(b, wantBytes) {
			t.Errorf("%s: written back as %d bytes, not the %d a fresh build writes", fx.file, len(b), len(wantBytes))
		}
	}
}

// TestLegacyDoorReadsRetiredLayouts: a file of each retired layout, of
// every kind and of a partition, reads as the rank-free file of the same
// set, byte for byte.  A file that stores its ranks and records no seed —
// weighted, approximate — is refused without one and read with it.
func TestLegacyDoorReadsRetiredLayouts(t *testing.T) {
	seed := uint64(42)
	layouts := map[string]func(testing.TB, []byte) []byte{"ranks": legacyV3, "per-entry": perEntryV3, "wide": wideV3, "plain": plainV3, "compact": compactV3, "rice": riceV3, "rank": rankedV3, "adapt": adaptiveV3}
	for name, data := range v3Files(t) {
		for layout, rewrite := range layouts {
			if (layout == "rank" || layout == "adapt") && !strings.HasPrefix(name, "uniform") {
				continue // only a uniform set's codes were rank-ordered
			}
			old, label := rewrite(t, data), name+" "+layout
			given := (*uint64)(nil)
			if layout == "ranks" && !strings.HasPrefix(name, "uniform") {
				checkNeedsSeed(t, label, old)
				given = &seed
			}
			set, err := Read(bytes.NewReader(old), given)
			if err != nil || !bytes.Equal(v3Bytes(t, set), data) {
				t.Errorf("%s: %v, or not the rank-free file", label, err)
			}
		}
	}
}

// TestLegacyDoorChecksStoredRanks: a stored rank is checked against the
// one the frame derives, so one rank an ulp off is refused, naming its
// sketch and entry — in a bottom-k file of either version, in a weighted
// one read under its seed — and so is every rank of a file read under
// another seed than it was built with.
func TestLegacyDoorChecksStoredRanks(t *testing.T) {
	files := v3Files(t)
	legacy := map[string][]byte{}
	for name, data := range files {
		legacy[name] = legacyV3(t, data)
	}
	// rankAt returns where legacyV3's file of set stores the rank of entry
	// i of node v: after the header, the offsets, the 32-bit IDs and the
	// distances, at the entry's position in the set.
	rankAt := func(name string, v, i int) int {
		set := read(t, files[name], nil)
		at := i
		for u := int32(0); u < int32(v); u++ {
			at += len(entries(set, u))
		}
		e := set.TotalEntries()
		return 16 + 64 + 8*(set.NumNodes()+1) + (4*e+7)&^7 + 8*e + 8*at
	}
	// Version 2: 40 bytes of header, then node 0's sketch — a count and 20
	// bytes an entry — whose entry 0 has its rank 12 bytes in.
	v2uniform, v2at := readFixture(t, "uniform_v2_k8.ads"), 40+4+12
	seed := uint64(42)
	for name, tc := range map[string]struct {
		data []byte
		at   int
		seed *uint64
		want string
	}{
		"bottom-k":           {legacy["uniform"], rankAt("uniform", 5, 1), nil, "ADS(5) entry 1 "},
		"weighted":           {legacy["weighted"], rankAt("weighted", 7, 2), &seed, "ADS(7) entry 2 "},
		"base-2":             {legacy["uniform-base2"], rankAt("uniform-base2", 3, 0), nil, "ADS(3) entry 0 "},
		"version-2 bottom-k": {v2uniform, v2at, nil, "ADS(0) entry 0 "},
	} {
		if _, err := Read(bytes.NewReader(tc.data), tc.seed); err != nil {
			t.Fatalf("%s: intact file refused: %v", name, err)
		}
		bad := append([]byte(nil), tc.data...)
		bad[tc.at] ^= 1
		if _, err := Read(bytes.NewReader(bad), tc.seed); err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "seed derives") {
			t.Errorf("%s: one rank an ulp off: %v, want a refusal naming %q", name, err, tc.want)
		}
	}
	other := uint64(43)
	for name, data := range map[string][]byte{
		"weighted": legacy["weighted"],
		"approx":   legacy["approx"],
		"v2":       readFixture(t, "weighted_v2_k4.ads"),
	} {
		if _, err := Read(bytes.NewReader(data), &other); err == nil || !strings.Contains(err.Error(), "(seed 43)") {
			t.Errorf("%s under seed 43: %v, want a refusal naming the seed", name, err)
		}
	}
}

// TestRefusesOtherFlavors: a k-mins or k-partition file of any layout is
// refused, naming its flavor — the four committed k-mins files of retired
// layouts, and the current-layout files of both flavors the last release
// to build them wrote (`adstool build -flavor kmins|kpartition` on
// fixtureGraph, `-k 4 -seed 42`).  Only bottom-k sets are served, so only
// they are rewritten.
func TestRefusesOtherFlavors(t *testing.T) {
	for path, flavor := range map[string]string{
		"testdata/kmins_base2_v2_k4.ads":      "k-mins",
		"testdata/kmins_base2_v3dist_k4.ads":  "k-mins",
		"testdata/kmins_base2_v3step_k4.ads":  "k-mins",
		"testdata/kmins_base2_v3pack_k4.ads":  "k-mins",
		"../../testdata/kmins_v3_k4.ads":      "k-mins",
		"../../testdata/kpartition_v3_k4.ads": "k-partition",
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		seed := uint64(42)
		for _, given := range []*uint64{nil, &seed} {
			if _, err := Read(bytes.NewReader(data), given); err == nil || !strings.Contains(err.Error(), flavor+" sketches") {
				t.Errorf("%s: %v, want a refusal naming %s", filepath.Base(path), err, flavor)
			}
		}
	}
}
