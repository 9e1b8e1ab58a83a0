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
	nodes []byte
	bits  []byte
	codes []uint64  // one per step, when the header has a dictionary
	dists []float64 // the dictionary, or the raw steps
	tail  []byte    // betas

	// Where the columns start in the file the parts were split from.
	offsAt, nodesAt, bitsAt, codesAt, distsAt int64
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
	p.nodesAt = pos
	p.nodes = next(h.nodesSize())
	p.bitsAt = pos
	p.bits = next(bitWords(int64(h.numEntries)) * 8)
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
	out = append(out, p.nodes...)
	out = append(out, p.bits...)
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
		distinctAt := p.offsAt - 8
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
		edit("an offset bit past the last offset", true, from, func(b []byte) { b[p.nodesAt-1] |= 0x80 })
		cut := func(b []byte, at int64) []byte { return append(append([]byte(nil), b[:at]...), b[at+8:]...) }
		pad := func(b []byte, at int64) []byte {
			return append(append(append([]byte(nil), b[:at]...), make([]byte, 8)...), b[at:]...)
		}
		damaged[from+": offsets a word short"], trusted[from+": offsets a word short"] = cut(valid[from], p.nodesAt-8), true
		damaged[from+": offsets a word long"], trusted[from+": offsets a word long"] = pad(valid[from], p.nodesAt), true
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

// referenceSizes returns what the frame's own entries cost as a file,
// worked out from the entries alone: in the layout every writer emits
// (compact), in the one before it with 64 bits an offset and a float a step
// (plain), with how many distance steps they make and how many distinct
// values those are coded through (0: raw, a dictionary being no smaller).
func referenceSizes(f *Frame, partition bool) (compact, plain, steps, coded int64) {
	words := func(n int64, w uint64) int64 { return (n*int64(w) + 63) / 64 }
	var all []float64
	for v := 0; v < f.n; v++ {
		c := f.colsAt(v)
		l := c.entries()
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
	entries := 8*words(e, testWidth(uint64(f.total))) + 8*words(e, 1)
	if f.p.Kind == KindWeighted {
		entries += 8 * e
	}
	stepBytes := 8 * steps
	if b := 8*distinct + 8*words(steps, testWidth(uint64(distinct))); b < stepBytes {
		stepBytes, coded = b, distinct
	}
	compact = header + 8 + 8*words(nOff, testWidth(uint64(e)+1)) + entries + stepBytes
	plain = header + 8*nOff + entries + 8*steps
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
		{"header", 88},
		{"offsets", 26256},    // 10001 offsets × 21 bits
		{"nodes", 2227192},    // 1272677 entries × 14 bits
		{"step bits", 159088}, // 1272677 bits
		{"step codes", 19736}, // 52617 steps × 3 bits
		{"dictionary", 48},    // 6 distances
	}
	got := h.columns()
	total := int64(0)
	for i, c := range got {
		total += c.Bytes
		if i >= len(want) || c != want[i] {
			t.Errorf("column %d is %+v, want %+v", i, c, want[min(i, len(want)-1)])
		}
	}
	if len(got) != len(want) || total != 2432408 || int64(len(v3Bytes(t, set))) != total {
		t.Errorf("%d columns, %d bytes in all, %d written: want %d columns and 2432408 bytes", len(got), total, len(v3Bytes(t, set)), len(want))
	}
	if h.numEntries != 1272677 || h.numSteps != 52617 || h.numDistinct != 6 {
		t.Errorf("%d entries, %d steps, %d distinct distances: want 1272677, 52617, 6", h.numEntries, h.numSteps, h.numDistinct)
	}
	frame := MemoryOf(set)
	if samples := int64(8 * (bitWords(1272677)/rankSampleWords + 1)); frame != total-88+samples+48 {
		t.Errorf("the frame holds %d bytes, want the file's columns, %d of popcount samples and the dictionary's use counts", frame, samples)
	}
}
