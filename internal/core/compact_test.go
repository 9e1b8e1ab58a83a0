package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"adsketch/internal/graph"
)

// v3Parts is a version-3 file taken apart, for tests that put it back
// together wrong: the header as parsed, the bit offsets unpacked to a
// value each (bit by bit, with none of packedColumn), the node stream and
// the dictionary.  bytes() re-emits it under whatever the header then
// says, deriving the offsets' width from the header's counts the way a
// reader will, and enforcing nothing.
type v3Parts struct {
	h     frameHdr
	boffs []uint64 // the bit offsets of the sketches
	nodes []byte   // the node stream, whole words
	dict  []float64

	// Where the columns start in the file the parts were split from.
	boffsAt, nodesAt, dictAt int64
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
	p.boffsAt = pos
	p.boffs = testUnpack(next(h.bitOffsetsSize()), h.n+1, testWidth(h.numNodeBits+1))
	p.nodesAt = pos
	p.nodes = next(h.nodesSize())
	p.dictAt = pos
	for b := next(8 * int64(h.numDistinct)); len(b) > 0; b = b[8:] {
		p.dict = append(p.dict, math.Float64frombits(binary.LittleEndian.Uint64(b)))
	}
	return p
}

func (p *v3Parts) bytes() []byte {
	out := p.h.appendHeader(nil)
	out = append(out, testPack(p.boffs, testWidth(p.h.numNodeBits+1))...)
	out = append(out, p.nodes...)
	for _, d := range p.dict {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(d))
	}
	return out
}

// list returns sketch i's bits, a bit each.
func (p *v3Parts) list(i int) []uint64 { return p.lists()[i] }

// setLists makes lists, a bit each, the node stream: its words, its bit
// offsets and the header's numNodeBits.
func (p *v3Parts) setLists(lists [][]uint64) {
	var bits []uint64
	p.boffs = p.boffs[:0]
	for _, l := range lists {
		p.boffs = append(p.boffs, uint64(len(bits)))
		bits = append(bits, l...)
	}
	p.boffs = append(p.boffs, uint64(len(bits)))
	p.h.numNodeBits, p.nodes = uint64(len(bits)), testPack(bits, 1)
}

// lists returns every sketch's bits.
func (p *v3Parts) lists() [][]uint64 {
	bits := testUnpack(p.nodes, p.h.numNodeBits, 1)
	out := make([][]uint64, p.h.n)
	for i := range out {
		out[i] = slices.Clone(bits[p.boffs[i]:p.boffs[i+1]])
	}
	return out
}

// testList is a sketch's bits taken apart under its file's header: its
// entry and step counts, the codes of its steps after the owner's — index
// deltas less one, or a raw float's bits — and the rest, its node codes
// and β, a bit each.
type testList struct {
	n, r  uint64
	codes []uint64
	rest  []uint64
}

// testReadRice reads a Rice code of parameter b at bit at of bits, and
// returns it and the position past it.
func testReadRice(bits []uint64, at int, b uint64) (uint64, int) {
	q := uint64(0)
	for ; bits[at] == 0; at++ {
		q++
	}
	x := q << b
	for k := range b {
		x |= bits[at+1+int(k)] << k
	}
	return x, at + 1 + int(b)
}

// decode takes sketch i apart.
func (p *v3Parts) decode(i int) testList {
	eb, sb, db := testParams(p.h)
	bits := p.list(i)
	var l testList
	at := 0
	l.n, at = testReadRice(bits, at, eb)
	l.r, at = testReadRice(bits, at, sb)
	l.n, l.r = l.n+1, l.r+1
	for range l.r - 1 {
		var c uint64
		if p.h.numDistinct > 0 {
			c, at = testReadRice(bits, at, db)
		} else {
			for k := range 64 {
				c |= bits[at+k] << k
			}
			at += 64
		}
		l.codes = append(l.codes, c)
	}
	l.rest = bits[at:]
	return l
}

// encode returns the bits of l under the file's header.
func (p *v3Parts) encode(l testList) []uint64 {
	eb, sb, db := testParams(p.h)
	out := append(testRice(l.n-1, eb), testRice(l.r-1, sb)...)
	for _, c := range l.codes {
		if p.h.numDistinct > 0 {
			out = append(out, testRice(c, db)...)
		} else {
			out = append(out, testRaw(c)...)
		}
	}
	return append(out, l.rest...)
}

// recode changes sketch i by fn.
func (p *v3Parts) recode(i int, fn func(l *testList)) {
	lists := p.lists()
	l := p.decode(i)
	fn(&l)
	lists[i] = p.encode(l)
	p.setLists(lists)
}

// restep takes every sketch's steps apart into distances, lets fn change
// the header and the dictionary, and codes the steps again under what it
// left: through the dictionary, by index, or raw.
func (p *v3Parts) restep(fn func(p *v3Parts)) {
	dists := make([][]float64, p.h.n)
	ls := make([]testList, p.h.n)
	for i := range ls {
		ls[i] = p.decode(i)
		idx := uint64(0)
		for _, c := range ls[i].codes {
			if p.h.numDistinct > 0 {
				idx += c + 1
				dists[i] = append(dists[i], p.dict[idx])
			} else {
				dists[i] = append(dists[i], math.Float64frombits(c))
			}
		}
	}
	fn(p)
	lists := make([][]uint64, p.h.n)
	for i, l := range ls {
		l.codes = l.codes[:0]
		prev := uint64(0)
		for _, d := range dists[i] {
			if p.h.numDistinct > 0 {
				at := uint64(slices.Index(p.dict, d))
				l.codes, prev = append(l.codes, at-prev-1), at
			} else {
				l.codes = append(l.codes, math.Float64bits(d))
			}
		}
		lists[i] = p.encode(l)
	}
	p.setLists(lists)
}

// hostileCompactFiles returns valid files — hop distances, whose steps go
// through a dictionary, whole and as a partition; random edge lengths,
// whose steps stay raw — and damaged copies, one per way the header's
// counts, the dictionary and the steps can lie.  trusted marks the damage
// the file openers must catch too: whatever would misplace a column, or
// search a dictionary that is not one.  What is merely not the one
// encoding of its entries — a step past the dictionary (read as its last
// value), a dictionary value no step uses, raw steps a dictionary would
// beat, counts the header's do not sum to — is the validating stream
// readers' to refuse.
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
	if raw.h.numDistinct != 0 || raw.decode(0).r < 3 {
		t.Fatalf("the random-length set codes its steps through %d values, %d steps in node 0: want raw steps and a longer first sketch", raw.h.numDistinct, raw.decode(0).r)
	}
	for _, from := range []string{"hops", "partition"} {
		p := splitV3(t, valid[from])
		d, steps := p.h.numDistinct, p.h.numSteps
		if l := p.decode(1); d < 3 || l.r < 3 || l.codes[0] != 0 || l.codes[1] != 0 {
			t.Fatalf("%s: %d steps over %d values, sketch 1's step codes %v: want a dictionary of 3 values at least and a second sketch reaching distance 2", from, steps, d, l.codes)
		}
		distinctAt := p.boffsAt - 16
		// The dictionary has to be one: strictly ascending from 0.
		rebuilt("equal dictionary values", true, from, func(p *v3Parts) { p.dict[2] = p.dict[1] })
		rebuilt("descending dictionary", true, from, func(p *v3Parts) { p.dict[1], p.dict[2] = p.dict[2], p.dict[1] })
		rebuilt("NaN in the dictionary", true, from, func(p *v3Parts) { p.dict[1] = math.NaN() })
		rebuilt("NaN ending the dictionary", true, from, func(p *v3Parts) { p.dict[d-1] = math.NaN() })
		rebuilt("negative dictionary value", true, from, func(p *v3Parts) { p.dict[0] = -1 })
		rebuilt("a dictionary starting past 0", true, from, func(p *v3Parts) { p.dict[0] = 0.5 })
		rebuilt("-0 after +0 in the dictionary", true, from, func(p *v3Parts) { p.dict[1] = math.Copysign(0, -1) })
		// A step past it reads as its last value, never out of range; only
		// the stream readers look.
		rebuilt("a step past the dictionary", false, from, func(p *v3Parts) {
			p.recode(1, func(l *testList) { l.codes[len(l.codes)-1] += d })
		})
		// One encoding: every value used, the smaller form.
		rebuilt("an unused dictionary value", false, from, func(p *v3Parts) {
			p.restep(func(p *v3Parts) {
				p.dict = append(p.dict, 99)
				p.h.numDistinct++
			})
		})
		rebuilt("an unused dictionary value in the middle", false, from, func(p *v3Parts) {
			p.restep(func(p *v3Parts) {
				p.dict = append(p.dict[:2], append([]float64{1.5}, p.dict[2:]...)...)
				p.h.numDistinct++
			})
		})
		rebuilt("raw steps where a dictionary is smaller", false, from, func(p *v3Parts) {
			p.restep(func(p *v3Parts) { p.dict, p.h.numDistinct = nil, 0 })
		})
		// A uniform set has no weight scheme or epsilon (Params.Validate).
		at := distinctAt - frameHdrSize
		edit("a weight scheme on a uniform set", true, from, func(b []byte) { le.PutUint32(b[at+24:], uint32(PriorityWeights)) })
		edit("an epsilon on a uniform set", true, from, func(b []byte) { le.PutUint64(b[at+32:], math.Float64bits(0.5)) })
		// The header's counts place every column after them, and fix the
		// parameters of the sketches' codes.
		edit("more values than steps", true, from, func(b []byte) { le.PutUint64(b[distinctAt:], steps+1) })
		edit("no dictionary over codes", true, from, func(b []byte) { le.PutUint64(b[distinctAt:], 0) })
		edit("a dictionary of one value fewer", true, from, func(b []byte) { le.PutUint64(b[distinctAt:], d-1) })
		edit("fewer steps than sketches", true, from, func(b []byte) { le.PutUint64(b[distinctAt-8:], p.h.n-1) })
		edit("a step more than the sketches hold", false, from, func(b []byte) { le.PutUint64(b[distinctAt-8:], steps+1) })
		edit("an entry more than the sketches hold", false, from, func(b []byte) { le.PutUint64(b[distinctAt-16:], p.h.numEntries+1) })
		for _, huge := range []uint64{1 << 61, 1<<61 - 1, 1 << 63, math.MaxUint64} {
			edit(fmt.Sprintf("a dictionary of %#x values overflowing the body", huge), true, from, func(b []byte) { le.PutUint64(b[distinctAt:], huge) })
			edit(fmt.Sprintf("%#x steps and half as many values overflowing the body", huge), true, from, func(b []byte) {
				le.PutUint64(b[distinctAt-8:], huge)
				le.PutUint64(b[distinctAt:], huge/2)
			})
		}
		cut := func(b []byte, at int64) []byte { return append(append([]byte(nil), b[:at]...), b[at+8:]...) }
		pad := func(b []byte, at int64) []byte {
			return append(append(append([]byte(nil), b[:at]...), make([]byte, 8)...), b[at:]...)
		}
		damaged[from+": dictionary a word short"], trusted[from+": dictionary a word short"] = cut(valid[from], p.dictAt), true
		damaged[from+": dictionary a word long"], trusted[from+": dictionary a word long"] = pad(valid[from], p.dictAt), true
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
		p.restep(func(p *v3Parts) {
			var all []float64
			for i := range p.h.n {
				l := p.decode(int(i))
				all = append(all, 0)
				for _, c := range l.codes {
					all = append(all, math.Float64frombits(c))
				}
			}
			sort.Float64s(all)
			p.dict = dedupe(all)
			p.h.numDistinct = uint64(len(p.dict))
		})
	})
	// Raw steps lie the way steps always could.
	rebuilt("equal steps", false, "lengths", func(p *v3Parts) {
		p.recode(0, func(l *testList) { l.codes[1] = l.codes[0] })
	})
	rebuilt("decreasing steps", false, "lengths", func(p *v3Parts) {
		p.recode(0, func(l *testList) { l.codes[0], l.codes[1] = l.codes[1], l.codes[0] })
	})
	rebuilt("NaN step", false, "lengths", func(p *v3Parts) {
		p.recode(0, func(l *testList) { l.codes[0] = math.Float64bits(math.NaN()) })
	})
	rebuilt("negative step", false, "lengths", func(p *v3Parts) {
		p.recode(0, func(l *testList) { l.codes[0] = math.Float64bits(-1) })
	})
	return valid, damaged, trusted
}

// testRiceBits returns the length of the node codes of l in a set of
// total nodes (testNodeCodes), rank-ordered when pos is given.
func testRiceBits(l []Entry, total uint64, pos []uint64, k int) int64 {
	codes, _ := testNodeCodes(l, total, pos, k)
	return int64(len(codes))
}

// referenceSizes returns what the frame's own entries cost as a file,
// worked out from the entries alone: in the layout every writer emits (the
// reference encoder's, canonicalV3), in the one with 64 bits an offset, a
// float a step and fixed-width IDs (plain), with how many distance steps
// they make and how many distinct values those are coded through (0: raw,
// a dictionary being no smaller).
func referenceSizes(f *Frame, partition bool) (compact, plain, steps, coded int64) {
	words := func(n int64, w uint64) int64 { return (n*int64(w) + 63) / 64 }
	lists, betas := segmentLists(f)
	h := headerOf(&Set{frame: f})
	header := int64(framePreambleSize + frameHdrSize)
	if partition {
		h.innerKind, h.kind, h.total = h.kind, kindPartition, uint32(f.total)
		header += framePartHdrSize
	}
	data := canonicalV3(h, lists, betas)
	at := header // numDistinct
	e, nOff := int64(f.totalEntries()), int64(f.n+1)
	for _, l := range lists {
		steps += int64(countSteps(l))
	}
	perEntry := int64(0)
	if f.p.Kind == KindWeighted {
		perEntry += 8 * e
	}
	plain = header + 8*nOff + 8*words(e, testWidth(uint64(f.total))) + 8*words(e, 1) + perEntry + 8*steps
	return int64(len(data)), plain, steps, int64(binary.LittleEndian.Uint64(data[at:]))
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
	if len(damaged) != 69 {
		t.Errorf("only %d damaged files: some cases share a name", len(damaged))
	}
	checkHostileFiles(t, damaged, trusted)
}

// testCodeBits returns the bits of the frame's node codes — its sketches'
// bits less their counts, steps and β.
func testCodeBits(f *Frame) int64 {
	bits := int64(0)
	for v := range f.n {
		p := f.listAt(v).nodes
		bits += p.end - p.bit
	}
	return bits
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
	e, lengths, codes := float64(f.totalEntries()), testLengthBits(f), testCodeBits(f)
	gaps := float64(codes-lengths) / e
	t.Logf("%d entries, %d bits of node codes: %.3f an entry of gaps and %.3f of run lengths", f.totalEntries(), codes, gaps, float64(lengths)/e)
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
		now, before := uint64(testCodeBits(set.frame)-testLengthBits(set.frame)), binary.LittleEndian.Uint64(rankedV3(t, data)[at:])
		t.Logf("%s: %d bits of gap codes, %d at one parameter a run (%+.1f%%)", tc.name, now, before, 100*(float64(now)/float64(before)-1))
		if float64(now) > 1.01*float64(before) {
			t.Errorf("%s: %d bits of gap codes, more than 1%% over the %d of one parameter a run", tc.name, now, before)
		}
	}
}

// TestFileBytesNoLargerPerFamily: on every graph family (familyGraphs),
// on preferential attachment with random edge lengths, and for a weighted
// set, the file takes no more bytes than the layout before each sketch's
// counts, steps and β came inline in its bit range (the retired 0x1fe
// layout's writer, and 0x13e's for the weighted set): the inline counts
// and step codes must not buy the benchmark's saving with another
// family's bytes.  Skipped under -short: the builds take a few seconds.
func TestFileBytesNoLargerPerFamily(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ten-thousand-node sets")
	}
	type family struct {
		name string
		set  *Set
	}
	var families []family
	build := func(name string, g *graph.Graph, k int) {
		set, err := BuildSet(g, Options{K: k, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		families = append(families, family{name, set})
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
	weighted, err := BuildWeightedSetParallel(pa, 16, 42, beta, ExponentialWeights, 0)
	if err != nil {
		t.Fatal(err)
	}
	families = append(families, family{"pa weighted", weighted})
	for _, fm := range families {
		data := v3Bytes(t, fm.set)
		now, before := len(data), len(runLengthsV3(t, data))
		nodes := float64(fm.set.NumNodes())
		t.Logf("%s: %d bytes, %d with offset columns (%+.1f%%, %.1f B/node less)", fm.name, now, before, 100*(float64(now)/float64(before)-1), float64(before-now)/nodes)
		if now > before {
			t.Errorf("%s: %d bytes, more than the %d with offset columns", fm.name, now, before)
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
		{"bit offsets", 28760}, // 10001 offsets × 23 bits
		// 8318628 bits: the counts' codes, 124255 (eb 6, sb 2: 12.4 a
		// sketch); the steps', 42617, one bit a step past the owner's, each
		// the next distance of the dictionary; and 1272677 entries' adaptive
		// rank-ordered Rice codes, 7929839 bits, with 32617 run lengths',
		// 221917: 6.41 an entry, against 14 fixed.
		{"nodes", 1039832},
		{"dictionary", 48}, // 6 distances
	}
	got := h.columns()
	total := int64(0)
	for i, c := range got {
		total += c.Bytes
		if i >= len(want) || c != want[i] {
			t.Errorf("column %d is %+v, want %+v", i, c, want[min(i, len(want)-1)])
		}
	}
	if len(got) != len(want) || total != 1068736 || int64(len(v3Bytes(t, set))) != total {
		t.Errorf("%d columns, %d bytes in all, %d written: want %d columns and 1068736 bytes", len(got), total, len(v3Bytes(t, set)), len(want))
	}
	if h.numEntries != 1272677 || h.numSteps != 52617 || h.numDistinct != 6 || h.numNodeBits != 8318628 {
		t.Errorf("%d entries, %d steps, %d distinct distances, %d bits of sketches: want 1272677, 52617, 6, 8318628", h.numEntries, h.numSteps, h.numDistinct, h.numNodeBits)
	}
	if codes := testCodeBits(set.frame); codes != 8151756 {
		t.Errorf("the node codes take %d bits, want 8151756", codes)
	}
	// The gaps' codes are the retired 0xfe layout's, bit for bit, and the
	// node codes with their lengths the 0x1fe layout's, whose offsets,
	// step offsets and step codes the counts and steps replace: that file
	// is 1113880 bytes, 111.39 a node.
	data := v3Bytes(t, set)
	if before := binary.LittleEndian.Uint64(adaptiveV3(t, data)[framePreambleSize+frameHdrSize+8:]); before != 7929839 {
		t.Errorf("the same set's codes without run lengths take %d bits, want 7929839", before)
	}
	if runs := runLengthsV3(t, data); len(runs) != 1113880 || binary.LittleEndian.Uint64(runs[framePreambleSize+frameHdrSize+8:]) != 8151756 {
		t.Errorf("the same set in the 0x1fe layout is %d bytes, want 1113880 with 8151756 bits of node codes", len(runs))
	}
	if frame := MemoryOf(set); frame != total-96+12*10000 {
		t.Errorf("the frame holds %d bytes, want the file's columns and the rank order's node and rank a node", frame)
	}
}
