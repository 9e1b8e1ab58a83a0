package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"

	"adsketch/internal/graph"
)

// v3Parts is a compact version-3 file taken apart, for tests that put it
// back together wrong: the header as parsed, the packed integer columns
// unpacked to a value each (bit by bit, with none of packedColumn), the
// rest as bytes.  bytes() re-emits it under whatever the header then says,
// deriving every width from the header's counts the way a reader will, and
// enforcing nothing.
type v3Parts struct {
	h     frameHdr
	offs  []uint64
	boffs []uint64 // the bit offsets of the node codes
	soffs []uint64 // the step offsets
	nodes []byte
	codes []uint64  // one per step, when the header has a dictionary
	dists []float64 // the dictionary, or the raw steps
	tail  []byte    // betas

	// Where the columns start in the file the parts were split from.
	offsAt, boffsAt, soffsAt, nodesAt, codesAt, distsAt int64
}

// testWidth is the width of a packed column of values below bound, spelled
// out: the smallest w, at least 1, with bound <= 2^w.
func testWidth(bound uint64) uint64 {
	w := uint64(1)
	for bound > 1<<w {
		w++
	}
	return w
}

func testUnpack(b []byte, n, w uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		for k := uint64(0); k < w; k++ {
			at := uint64(i)*w + k
			out[i] |= uint64(b[at/8]>>(at%8)&1) << k
		}
	}
	return out
}

func testPack(vals []uint64, w uint64) []byte {
	out := make([]byte, (uint64(len(vals))*w+63)/64*8)
	for i, v := range vals {
		for k := uint64(0); k < w; k++ {
			at := uint64(i)*w + k
			out[at/8] |= byte(v>>k&1) << (at % 8)
		}
	}
	return out
}

// splitV3 takes a version-3 file of the current layout apart.
func splitV3(t testing.TB, data []byte) v3Parts {
	t.Helper()
	h, consumed, err := parseFrameHdr(data[8:])
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != int64(8+consumed)+h.bodySize() {
		t.Fatalf("splitV3: %d bytes for a body of %d", len(data), h.bodySize())
	}
	p := v3Parts{h: h}
	pos := int64(8 + consumed)
	next := func(n int64) []byte {
		b := append([]byte(nil), data[pos:pos+n]...)
		pos += n
		return b
	}
	p.offsAt = pos
	p.offs = testUnpack(next(h.offsetsSize()), h.n+1, testWidth(h.numEntries+1))
	p.boffsAt = pos
	p.boffs = testUnpack(next(h.bitOffsetsSize()), h.n+1, testWidth(h.numNodeBits+1))
	p.soffsAt = pos
	p.soffs = testUnpack(next(h.stepOffsetsSize()), h.n+1, testWidth(h.numSteps+1))
	p.nodesAt = pos
	p.nodes = next(h.nodesSize())
	p.codesAt = pos
	if h.numDistinct > 0 {
		p.codes = testUnpack(next(h.codesSize()), h.numSteps, testWidth(h.numDistinct))
	}
	p.distsAt = pos
	for b := next(h.stepsSize()); len(b) > 0; b = b[8:] {
		p.dists = append(p.dists, math.Float64frombits(binary.LittleEndian.Uint64(b)))
	}
	p.tail = next(int64(len(data)) - pos)
	return p
}

func (p *v3Parts) bytes() []byte {
	out := p.h.appendHeader(nil)
	out = append(out, testPack(p.offs, testWidth(p.h.numEntries+1))...)
	out = append(out, testPack(p.boffs, testWidth(p.h.numNodeBits+1))...)
	out = append(out, testPack(p.soffs, testWidth(p.h.numSteps+1))...)
	out = append(out, p.nodes...)
	if p.h.numDistinct > 0 {
		out = append(out, testPack(p.codes, testWidth(p.h.numDistinct))...)
	}
	for _, d := range p.dists {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(d))
	}
	return append(out, p.tail...)
}

// hostileCompactFiles returns valid files — hop distances, whose steps go
// through a dictionary, whole and as a partition; random edge lengths,
// whose steps stay raw — and damaged copies, one per way the compact
// columns can lie.  trusted marks the damage the file openers must catch
// too: whatever would misplace a column, index the entries out of range,
// or search a dictionary that is not one.  What is merely not the one
// encoding of its entries — a code past the dictionary (read as its last
// value), a dictionary value no step uses, raw steps a dictionary would
// beat, codes out of order — is the validating stream readers' to refuse.
func hostileCompactFiles(t testing.TB) (valid, damaged map[string][]byte, trusted map[string]bool) {
	t.Helper()
	o := Options{K: 4, Seed: 42}
	hops, err := BuildSet(graph.PreferentialAttachment(61, 3, 9), o)
	if err != nil {
		t.Fatal(err)
	}
	// Directed: an undirected graph has every distance twice over, once from
	// each end, which is already enough for a dictionary to win.
	lengths, err := BuildSet(graph.WithRandomWeights(graph.GNP(61, 0.1, true, 9), 0.25, 4, 11), o)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := SplitSketchSet(hops, 2)
	if err != nil {
		t.Fatal(err)
	}
	valid = map[string][]byte{"hops": v3Bytes(t, hops), "partition": v3Bytes(t, parts[1]), "lengths": v3Bytes(t, lengths)}
	damaged, trusted = map[string][]byte{}, map[string]bool{}
	le := binary.LittleEndian
	edit := func(name string, open bool, from string, fn func(b []byte)) {
		b := append([]byte(nil), valid[from]...)
		fn(b)
		damaged[from+": "+name], trusted[from+": "+name] = b, open
	}
	rebuilt := func(name string, open bool, from string, fn func(p *v3Parts)) {
		p := splitV3(t, valid[from])
		fn(&p)
		damaged[from+": "+name], trusted[from+": "+name] = p.bytes(), open
	}
	raw := splitV3(t, valid["lengths"])
	if raw.h.numDistinct != 0 || raw.offs[1] < 3 {
		t.Fatalf("the random-length set codes its steps through %d values, %d entries in node 0: want raw steps and a longer first sketch", raw.h.numDistinct, raw.offs[1])
	}
	for _, from := range []string{"hops", "partition"} {
		p := splitV3(t, valid[from])
		d, steps, nOff := p.h.numDistinct, p.h.numSteps, uint64(len(p.offs))
		wc, wo := testWidth(d), testWidth(p.h.numEntries+1)
		if d < 3 || d&(d-1) == 0 || steps*wc%64 == 0 || nOff*wo%64 == 0 || p.codes[0] != 0 || p.codes[1] != 1 || p.codes[2] != 2 {
			t.Fatalf("%s: %d steps over %d values, %d offsets, first codes %v: want a dictionary that is not a power of two, spare bits in both packed columns and a first sketch reaching distance 2", from, steps, d, nOff, p.codes[:3])
		}
		distinctAt := p.offsAt - 16
		// The dictionary has to be one: non-negative, strictly ascending.
		rebuilt("equal dictionary values", true, from, func(p *v3Parts) { p.dists[2] = p.dists[1] })
		rebuilt("descending dictionary", true, from, func(p *v3Parts) { p.dists[1], p.dists[2] = p.dists[2], p.dists[1] })
		rebuilt("NaN in the dictionary", true, from, func(p *v3Parts) { p.dists[1] = math.NaN() })
		rebuilt("NaN ending the dictionary", true, from, func(p *v3Parts) { p.dists[d-1] = math.NaN() })
		rebuilt("negative dictionary value", true, from, func(p *v3Parts) { p.dists[0] = -1 })
		rebuilt("-0 after +0 in the dictionary", true, from, func(p *v3Parts) { p.dists[1] = math.Copysign(0, -1) })
		// A code past it reads as its last value, never out of range; only
		// the stream readers look.
		rebuilt("a code past the dictionary", false, from, func(p *v3Parts) { p.codes[steps/2] = d })
		rebuilt("the largest code the width spells", false, from, func(p *v3Parts) { p.codes[steps-1] = 1<<wc - 1 })
		// One encoding: every value used, the smaller form, codes ascending.
		rebuilt("an unused dictionary value", false, from, func(p *v3Parts) {
			p.dists = append(p.dists, 99)
			p.h.numDistinct++
		})
		rebuilt("an unused dictionary value in the middle", false, from, func(p *v3Parts) {
			p.dists = append(p.dists[:2], append([]float64{1.5}, p.dists[2:]...)...)
			for j, c := range p.codes {
				if c >= 2 {
					p.codes[j]++
				}
			}
			p.h.numDistinct++
		})
		rebuilt("raw steps where a dictionary is smaller", false, from, func(p *v3Parts) {
			steps := make([]float64, len(p.codes))
			for j, c := range p.codes {
				steps[j] = p.dists[c]
			}
			p.dists, p.codes, p.h.numDistinct = steps, nil, 0
		})
		rebuilt("codes that decrease within a segment", false, from, func(p *v3Parts) { p.codes[1], p.codes[2] = p.codes[2], p.codes[1] })
		rebuilt("codes that repeat within a segment", false, from, func(p *v3Parts) { p.codes[2] = p.codes[1] })
		// A uniform set has no weight scheme or epsilon (Params.validate).
		at := distinctAt - frameHdrSize
		edit("a weight scheme on a uniform set", true, from, func(b []byte) { le.PutUint32(b[at+24:], uint32(PriorityWeights)) })
		edit("an epsilon on a uniform set", true, from, func(b []byte) { le.PutUint64(b[at+32:], math.Float64bits(0.5)) })
		// The header's counts place every column after them.
		edit("more values than steps", true, from, func(b []byte) { le.PutUint64(b[distinctAt:], steps+1) })
		edit("no dictionary over codes", true, from, func(b []byte) { le.PutUint64(b[distinctAt:], 0) })
		edit("a dictionary of one value fewer", true, from, func(b []byte) { le.PutUint64(b[distinctAt:], d-1) })
		for _, huge := range []uint64{1 << 61, 1<<61 - 1, 1 << 63, math.MaxUint64} {
			edit(fmt.Sprintf("a dictionary of %#x values overflowing the body", huge), true, from, func(b []byte) { le.PutUint64(b[distinctAt:], huge) })
			edit(fmt.Sprintf("%#x steps and half as many values overflowing the body", huge), true, from, func(b []byte) {
				le.PutUint64(b[distinctAt-8:], huge)
				le.PutUint64(b[distinctAt:], huge/2)
			})
		}
		// No bit of a packed column is set past its last value.
		edit("a code bit past the last step", true, from, func(b []byte) { b[p.distsAt-1] |= 0x80 })
		edit("an offset bit past the last offset", true, from, func(b []byte) { b[p.boffsAt-1] |= 0x80 })
		cut := func(b []byte, at int64) []byte { return append(append([]byte(nil), b[:at]...), b[at+8:]...) }
		pad := func(b []byte, at int64) []byte {
			return append(append(append([]byte(nil), b[:at]...), make([]byte, 8)...), b[at:]...)
		}
		damaged[from+": offsets a word short"], trusted[from+": offsets a word short"] = cut(valid[from], p.boffsAt-8), true
		damaged[from+": offsets a word long"], trusted[from+": offsets a word long"] = pad(valid[from], p.boffsAt), true
		damaged[from+": codes a word short"], trusted[from+": codes a word short"] = cut(valid[from], p.distsAt-8), true
		damaged[from+": codes a word long"], trusted[from+": codes a word long"] = pad(valid[from], p.distsAt), true
		// The offsets still have to be offsets.
		rebuilt("offsets that decrease", true, from, func(p *v3Parts) { p.offs[3], p.offs[4] = p.offs[4], p.offs[3] })
		rebuilt("offsets that start past 0", true, from, func(p *v3Parts) { p.offs[0] = 1 })
		rebuilt("offsets that end short of the entries", true, from, func(p *v3Parts) { p.offs[nOff-1]-- })
		rebuilt("offsets that end past the entries", true, from, func(p *v3Parts) { p.offs[nOff-1]++ })
		// Bit 4 is the layout: set on a body without it, clear on one with.
		damaged[from+": the compact flag on 64-bit offsets"], trusted[from+": the compact flag on 64-bit offsets"] = func() []byte {
			b := plainV3(t, valid[from])
			le.PutUint32(b[12:], le.Uint32(b[12:])|frameFlagCompact)
			return b
		}(), true
		edit("compact columns without the flag", true, from, func(b []byte) { le.PutUint32(b[12:], le.Uint32(b[12:])&^frameFlagCompact) })
		edit("the compact flag without packed nodes", true, from, func(b []byte) { le.PutUint32(b[12:], le.Uint32(b[12:])&^frameFlagPackedNodes) })
	}
	// A dictionary where raw steps are smaller is refused on the header
	// alone, however well it is formed.
	rebuilt("a dictionary where raw is smaller", true, "lengths", func(p *v3Parts) {
		dict := append([]float64(nil), p.dists...)
		sort.Float64s(dict)
		dict = dedupe(dict)
		p.codes = make([]uint64, len(p.dists))
		for j, d := range p.dists {
			for dict[p.codes[j]] != d {
				p.codes[j]++
			}
		}
		p.dists, p.h.numDistinct = dict, uint64(len(dict))
	})
	// Raw steps lie the way steps always could.
	rebuilt("equal steps", false, "lengths", func(p *v3Parts) { p.dists[2] = p.dists[1] })
	rebuilt("decreasing steps", false, "lengths", func(p *v3Parts) { p.dists[1], p.dists[2] = p.dists[2], p.dists[1] })
	rebuilt("NaN step", false, "lengths", func(p *v3Parts) { p.dists[1] = math.NaN() })
	rebuilt("negative step", false, "lengths", func(p *v3Parts) { p.dists[0] = -1 })
	return valid, damaged, trusted
}

// testRiceBits returns the length of the node codes of l in a set of
// total nodes (testNodeCodes), rank-ordered when pos is given.
func testRiceBits(l []Entry, total uint64, pos []uint64, k int) int64 {
	codes, _ := testNodeCodes(l, total, pos, k)
	return int64(len(codes))
}

// referenceSizes returns what the frame's own entries cost as a file,
// worked out from the entries alone: in the layout every writer emits
// (compact, its node IDs Rice-coded), in the one with 64 bits an offset, a
// float a step and fixed-width IDs (plain), with how many distance steps
// they make and how many distinct values those are coded through (0: raw,
// a dictionary being no smaller).
func referenceSizes(f *Frame, partition bool) (compact, plain, steps, coded int64) {
	words := func(n int64, w uint64) int64 { return (n*int64(w) + 63) / 64 }
	var all []float64
	var pos []uint64
	if f.p.Kind == KindUniform {
		pos = testRankPositions(f.p, uint64(f.total))
	}
	rice := int64(0)
	for v := 0; v < f.n; v++ {
		c := f.colsAt(v)
		l := c.entries()
		rice += testRiceBits(l, uint64(f.total), pos, f.p.K)
		for i := range l {
			if i == 0 || l[i].Dist != l[i-1].Dist {
				all = append(all, l[i].Dist)
			}
		}
	}
	steps = int64(len(all))
	sort.Float64s(all)
	distinct := int64(len(dedupe(all)))
	header := int64(framePreambleSize + frameHdrSize)
	if partition {
		header += framePartHdrSize
	}
	e, nOff := int64(f.totalEntries()), int64(f.n+1)
	perEntry := int64(0)
	if f.p.Kind == KindWeighted {
		perEntry += 8 * e
	}
	stepBytes := 8 * steps
	if b := 8*distinct + 8*words(steps, testWidth(uint64(distinct))); b < stepBytes {
		stepBytes, coded = b, distinct
	}
	compact = header + 16 + 8*words(nOff, testWidth(uint64(e)+1)) + 8*words(nOff, testWidth(uint64(rice)+1)) +
		8*words(nOff, testWidth(uint64(steps)+1)) + 8*words(rice, 1) + perEntry + stepBytes
	plain = header + 8*nOff + 8*words(e, testWidth(uint64(f.total))) + 8*words(e, 1) + perEntry + 8*steps
	return compact, plain, steps, coded
}

func dedupe(v []float64) []float64 {
	out := v[:0]
	for i, d := range v {
		if i == 0 || d != v[i-1] {
			out = append(out, d)
		}
	}
	return out
}

// TestCompactColumnsRejectHostileInput: every way the packed offsets, the
// step codes and the dictionary can lie is an error — through the parser
// wherever it would misplace or misindex a column, through the validating
// stream readers always — and costs no allocation beyond the bytes that
// arrived; the files it was damaged from are accepted and are fixed points
// of read and write.
func TestCompactColumnsRejectHostileInput(t *testing.T) {
	valid, damaged, trusted := hostileCompactFiles(t)
	for name, data := range valid {
		set, err := ReadSketchSet(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(v3Bytes(t, set), data) {
			t.Errorf("%s: changes bytes through the stream reader", name)
		}
		if p := splitV3(t, data); !bytes.Equal(p.bytes(), data) {
			t.Errorf("%s: the test does not put the file back together as it was", name)
		}
	}
	if len(damaged) != 83 {
		t.Errorf("only %d damaged files: some cases share a name", len(damaged))
	}
	checkHostileFiles(t, damaged, trusted)
}

// testLengthBits returns the bits of the frame's run-length codes, as
// testNodeCodes spells them out: what its node codes take beyond their
// gaps'.
func testLengthBits(f *Frame) int64 {
	var pos []uint64
	if f.p.Kind == KindUniform {
		pos = testRankPositions(f.p, uint64(f.total))
	}
	bits := int64(0)
	for v := 0; v < f.n; v++ {
		c := f.colsAt(v)
		_, lengths := testNodeCodes(c.entries(), uint64(f.total), pos, f.p.K)
		bits += int64(lengths)
	}
	return bits
}

// TestNodeCodesAtScale: at ten times the benchmark's node count,
// PA(100000, 5) of graph seed 1, k=16, rank seed 42, the node codes' gaps
// take at most 8.0 bits an entry — 7.94 when pinned, where one Rice
// parameter a rank-ordered run took 8.75, the IDs' own Rice codes 12.76
// and a fixed-width ID would take 17 — so their saving grows with the set:
// a run's bound is the rank of the k-th entry before it, not the node
// count.  The run lengths beside them take 0.17 bits an entry, where the
// step bits they replace took 1.  Skipped under -short: the build takes a
// few seconds.
func TestNodeCodesAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100000-node set")
	}
	set, err := BuildSet(graph.PreferentialAttachment(100000, 5, 1), Options{K: 16, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	f := set.frame
	e, lengths := float64(f.totalEntries()), testLengthBits(f)
	gaps := float64(f.nodeBits()-lengths) / e
	t.Logf("%d entries, %d bits of node codes: %.3f an entry of gaps and %.3f of run lengths", f.totalEntries(), f.nodeBits(), gaps, float64(lengths)/e)
	if gaps > 8.0 || float64(lengths)/e > 0.25 {
		t.Errorf("the node codes take %.3f bits an entry of gaps and %.3f of run lengths, want at most 8.0 and 0.25", gaps, float64(lengths)/e)
	}
}

// familyGraph is one of the graph families the per-family size tests
// build, with the k they build it at.
type familyGraph struct {
	name string
	g    *graph.Graph
	k    int
}

// familyGraphs returns a grid, a path, a small world, sparse random
// graphs undirected and directed, and preferential attachment at k of 4,
// 16 and 64.
func familyGraphs() []familyGraph {
	pa := graph.PreferentialAttachment(10000, 5, 1)
	return []familyGraph{
		{"grid 100x100", graph.Grid(100, 100), 16},
		{"path 3000", graph.Path(3000), 16},
		{"watts-strogatz", graph.WattsStrogatz(10000, 10, 0.1, 1), 16},
		{"gnp", graph.GNP(10000, 5e-4, false, 1), 16},
		{"directed gnp", graph.GNP(10000, 5e-4, true, 1), 16},
		{"pa k=4", pa, 4},
		{"pa k=16", pa, 16},
		{"pa k=64", pa, 64},
	}
}

// TestNodeCodesNoLargerPerFamily: on every graph family (familyGraphs) the
// node codes' gaps — the codes less their run lengths (testLengthBits) —
// take at most 1% more bits than one Rice parameter a run with the owner's
// code included (the retired 0x7e layout's writer) took: the adaptive
// parameters must not buy the benchmark's saving with another family's
// bytes.  Skipped under -short: the builds take a few seconds.
func TestNodeCodesNoLargerPerFamily(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ten-thousand-node sets")
	}
	for _, tc := range familyGraphs() {
		set, err := BuildSet(tc.g, Options{K: tc.k, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		// numNodeBits, the header's last word.
		at := framePreambleSize + frameHdrSize + 8
		data := v3Bytes(t, set)
		now, before := uint64(set.frame.nodeBits()-testLengthBits(set.frame)), binary.LittleEndian.Uint64(rankedV3(t, data)[at:])
		t.Logf("%s: %d bits of gap codes, %d at one parameter a run (%+.1f%%)", tc.name, now, before, 100*(float64(now)/float64(before)-1))
		if float64(now) > 1.01*float64(before) {
			t.Errorf("%s: %d bits of gap codes, more than 1%% over the %d of one parameter a run", tc.name, now, before)
		}
	}
}

// TestFileBytesNoLargerPerFamily: on every graph family (familyGraphs),
// on preferential attachment with random edge lengths, and for a weighted
// set, the file takes at most 1% more bytes than the layout before run
// lengths and step offsets replaced the step bits (the retired 0xfe
// layout's writer, and 0x3e's for the weighted set): the step offsets and
// lengths must not buy the benchmark's saving with another family's
// bytes.  Skipped under -short: the builds take a few seconds.
func TestFileBytesNoLargerPerFamily(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ten-thousand-node sets")
	}
	type family struct {
		name   string
		set    *Set
		parent func(testing.TB, []byte) []byte
	}
	var families []family
	build := func(name string, g *graph.Graph, k int) {
		set, err := BuildSet(g, Options{K: k, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		families = append(families, family{name, set, adaptiveV3})
	}
	for _, tc := range familyGraphs() {
		build(tc.name, tc.g, tc.k)
	}
	pa := graph.PreferentialAttachment(10000, 5, 1)
	build("pa lengths", graph.WithRandomWeights(pa, 1, 4, 2), 16)
	beta := make([]float64, pa.NumNodes())
	for i := range beta {
		beta[i] = 1 + float64(i%7)
	}
	weighted, err := BuildWeightedSet(pa, 16, 42, beta)
	if err != nil {
		t.Fatal(err)
	}
	families = append(families, family{"pa weighted", weighted, riceV3})
	for _, fm := range families {
		data := v3Bytes(t, fm.set)
		now, before := len(data), len(fm.parent(t, data))
		t.Logf("%s: %d bytes, %d with step bits (%+.1f%%)", fm.name, now, before, 100*(float64(now)/float64(before)-1))
		if float64(now) > 1.01*float64(before) {
			t.Errorf("%s: %d bytes, more than 1%% over the %d with step bits", fm.name, now, before)
		}
	}
}

// TestBenchmarkFrameBytes pins the size of the repository benchmark's
// sketch file — PA(10000, 5) of graph seed 1, k=16, rank seed 42: BENCHMARK.json's
// sketch_bytes_per_node is this total over 10000 — column by column, so a
// layout regression fails here and not only in the twenty-second
// benchmark.  The counts are deterministic: same graph, same seed, same
// entries.
func TestBenchmarkFrameBytes(t *testing.T) {
	set, err := BuildSet(graph.PreferentialAttachment(10000, 5, 1), Options{K: 16, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	h := headerOf(set)
	want := []ColumnSize{
		{"header", 96},
		{"offsets", 26256},      // 10001 offsets × 21 bits
		{"bit offsets", 28760},  // 10001 offsets × 23 bits
		{"step offsets", 20008}, // 10001 offsets × 16 bits
		{"nodes", 1018976},      // 1272677 entries' adaptive rank-ordered Rice codes, 7929839 bits, and 32617 run lengths', 221917: 6.41 an entry, against 14 fixed
		{"step codes", 19736},   // 52617 steps × 3 bits
		{"dictionary", 48},      // 6 distances
	}
	got := h.columns()
	total := int64(0)
	for i, c := range got {
		total += c.Bytes
		if i >= len(want) || c != want[i] {
			t.Errorf("column %d is %+v, want %+v", i, c, want[min(i, len(want)-1)])
		}
	}
	if len(got) != len(want) || total != 1113880 || int64(len(v3Bytes(t, set))) != total {
		t.Errorf("%d columns, %d bytes in all, %d written: want %d columns and 1113880 bytes", len(got), total, len(v3Bytes(t, set)), len(want))
	}
	if h.numEntries != 1272677 || h.numSteps != 52617 || h.numDistinct != 6 || h.numNodeBits != 8151756 {
		t.Errorf("%d entries, %d steps, %d distinct distances, %d bits of node codes: want 1272677, 52617, 6, 8151756", h.numEntries, h.numSteps, h.numDistinct, h.numNodeBits)
	}
	// The gaps' codes are the retired 0xfe layout's, bit for bit: what the
	// nodes grew by is the lengths.
	if before := binary.LittleEndian.Uint64(adaptiveV3(t, v3Bytes(t, set))[framePreambleSize+frameHdrSize+8:]); before != 7929839 {
		t.Errorf("the same set's codes without run lengths take %d bits, want 7929839", before)
	}
	if frame := MemoryOf(set); frame != total-96+48+12*10000 {
		t.Errorf("the frame holds %d bytes, want the file's columns, the dictionary's use counts and the rank order's node and rank a node", frame)
	}
}
