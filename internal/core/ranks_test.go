package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"adsketch/internal/graph"
)

// legacyV3 rewrites a version-3 file the way files were laid out before
// ranks were derived: flag bits 1, 2 and 3 clear, 32 bits a node ID, a
// distance per entry, a rank column after them, and — for weighted and
// approximate sets — no seed in the header.  With perEntryV3, wideV3 and
// plainV3 it is the test-only writer of the retired layouts the readers
// refuse (internal/legacy, which reads them, has its own); none of them has
// flag bit 4, so all have no numDistinct word and store 64 bits an offset
// and a float a step.  compactV3 writes the last retired layout.
func legacyV3(t testing.TB, data []byte) []byte { return oldV3(t, data, true, false, false) }

// perEntryV3 rewrites a version-3 file the way files were laid out
// between ranks becoming derived and distances becoming step-coded: flag
// bits 2 and 3 clear, 32 bits a node ID, a distance per entry.
func perEntryV3(t testing.TB, data []byte) []byte { return oldV3(t, data, false, false, false) }

// wideV3 rewrites a version-3 file the way files were laid out between
// distances becoming step-coded and node IDs becoming packed: flag bit 3
// clear, 32 bits a node ID.
func wideV3(t testing.TB, data []byte) []byte { return oldV3(t, data, false, true, false) }

// plainV3 rewrites a version-3 file the way files were laid out between
// node IDs becoming packed and the last 64-bit columns following them:
// flag bit 4 clear, 64 bits an offset, a float a step, no numDistinct.
func plainV3(t testing.TB, data []byte) []byte { return oldV3(t, data, false, true, true) }

// compactV3 rewrites a version-3 file the way files were laid out
// between the compact columns and Rice-coded node IDs: flags 0x1e, no
// numNodeBits word, no bit offsets, and node IDs packed at the bits the
// set's node count needs.
func compactV3(t testing.TB, data []byte) []byte {
	t.Helper()
	set, err := openFrameBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	f := set.frame
	p := splitV3(t, data)
	h := p.h
	h.flags &^= frameFlagRiceNodes
	out := h.appendHeader(nil)
	out = out[:len(out)-8] // no numNodeBits
	out = append(out, testPack(p.offs, testWidth(h.numEntries+1))...)
	var ids []uint64
	for v := 0; v < f.n; v++ {
		for _, id := range f.nodesAt(v).AppendTo(nil) {
			ids = append(ids, uint64(id))
		}
	}
	out = append(out, testPack(ids, testWidth(uint64(f.total)))...)
	return append(out, data[p.bitsAt:]...)
}

func oldV3(t testing.TB, data []byte, storeRanks, stepCoded, packed bool) []byte {
	t.Helper()
	set, err := openFrameBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	f := set.frame
	h := headerOf(set)
	h.flags &^= frameFlagCompact | frameFlagRiceNodes
	h.numDistinct = 0
	if !packed {
		h.flags &^= frameFlagPackedNodes
	}
	if !stepCoded {
		h.flags &^= frameFlagStepDists
		h.numSteps = 0
	}
	if storeRanks {
		h.flags &^= frameFlagDerivedRanks
		if f.p.Kind != KindUniform {
			h.seed = 0
		}
	}
	le := binary.LittleEndian
	out := h.appendHeader(nil)
	out = out[:len(out)-16] // no numDistinct, no numNodeBits
	lo, hi := f.entryRange()
	for i := 0; i < f.numOffsets(); i++ {
		out = le.AppendUint64(out, uint64(f.offAt(i)-lo))
	}
	var rs rankScratch
	var nodes, dists, ranks, steps []byte
	first := make([]uint64, bitWords(hi-lo))
	for v := 0; v < f.n; v++ {
		c, _ := rs.filled(f.colsAt(v), f.nodesAt(v))
		for i, r := range c.rank {
			if i == 0 || c.dist[i] != c.dist[i-1] {
				setBit(first, int64(len(nodes)/4))
				steps = le.AppendUint64(steps, math.Float64bits(c.dist[i]))
			}
			nodes = le.AppendUint32(nodes, uint32(c.node[i]))
			dists = le.AppendUint64(dists, math.Float64bits(c.dist[i]))
			ranks = le.AppendUint64(ranks, math.Float64bits(r))
		}
	}
	if packed {
		var ids []uint64
		for i := 0; i < len(nodes); i += 4 {
			ids = append(ids, uint64(le.Uint32(nodes[i:])))
		}
		out = append(out, testPack(ids, testWidth(uint64(f.total)))...)
	} else {
		out = append(out, nodes...)
		out = append(out, make([]byte, pad8(4*(hi-lo))-4*(hi-lo))...)
	}
	if stepCoded {
		for _, w := range first {
			out = le.AppendUint64(out, w)
		}
		out = append(out, steps...)
	} else {
		out = append(out, dists...)
	}
	if storeRanks {
		out = append(out, ranks...)
	}
	if f.beta != nil {
		for _, b := range f.beta[lo:hi] {
			out = le.AppendUint64(out, math.Float64bits(b))
		}
	}
	return out
}

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
	weighted, err := BuildPriorityWeightedSet(g, 4, 42, beta)
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
	weighted, err := BuildWeightedSet(g, 4, 42, beta)
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
		set, err := BuildWeightedSet(g, 4, seed, beta)
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
