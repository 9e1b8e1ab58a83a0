package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"adsketch/internal/graph"
	"adsketch/internal/sketch"
)

// canonicalV3 is the reference encoder: the version-3 bytes of the entry
// lists (node-major segments, with β lists for a weighted set) under
// header h, written value by value and bit by bit with none of the
// writer's block copies, shifts or rank look-ups.  The width of a node ID
// is spelled out here rather than taken from nodeWidth: the smallest w,
// at least 1, with total-1 < 2^w.
func canonicalV3(h frameHdr, lists [][]Entry, betas [][]float64) []byte {
	le := binary.LittleEndian
	var off, steps, beta []byte
	var nodes, bits []uint64
	pos := uint64(0)
	h.numSteps = 0
	total := h.n
	if h.kind == kindPartition {
		total = uint64(h.total)
	}
	w := uint64(1)
	for total > 1<<w {
		w++
	}
	for s, l := range lists {
		off = le.AppendUint64(off, pos)
		for i, e := range l {
			for b := uint64(0); b < w; b++ {
				at := pos*w + b
				if at%64 == 0 {
					nodes = append(nodes, 0)
				}
				nodes[at/64] |= uint64(e.Node) >> b & 1 << (at % 64)
			}
			if pos%64 == 0 {
				bits = append(bits, 0)
			}
			if i == 0 || e.Dist != l[i-1].Dist {
				bits[pos/64] |= 1 << (pos % 64)
				steps = le.AppendUint64(steps, math.Float64bits(e.Dist))
				h.numSteps++
			}
			if betas != nil {
				beta = le.AppendUint64(beta, math.Float64bits(betas[s][i]))
			}
			pos++
		}
	}
	off = le.AppendUint64(off, pos)
	h.numEntries = pos
	h.flags |= frameFlagStepDists | frameFlagPackedNodes
	out := append(h.appendHeader(nil), off...)
	for _, w := range nodes {
		out = le.AppendUint64(out, w)
	}
	for _, w := range bits {
		out = le.AppendUint64(out, w)
	}
	out = append(out, steps...)
	return append(out, beta...)
}

// countSteps returns the number of steps the entries of one segment
// code to.
func countSteps(l []Entry) int {
	n := 0
	for i := range l {
		if i == 0 || l[i].Dist != l[i-1].Dist {
			n++
		}
	}
	return n
}

// segmentLists returns the entry lists (and β lists, for a weighted
// frame) of every segment of the frame's own node range.
func segmentLists(f *Frame) (lists [][]Entry, betas [][]float64) {
	for v := 0; v < f.n; v++ {
		for _, c := range f.segViews(v) {
			lists = append(lists, c.entries())
			if f.beta != nil {
				betas = append(betas, append([]float64(nil), c.beta...))
			}
		}
	}
	return lists, betas
}

// stepKinds is frameKinds twice over: on an unweighted graph, where a
// hundred entries share a handful of distances, and with random edge
// lengths, where every distance of a sketch is its own step.
func stepKinds(t *testing.T) map[string]AnySet {
	out := frameKinds(t)
	g := graph.WithRandomWeights(graph.PreferentialAttachment(120, 3, 9), 0.25, 4, 11)
	for name, o := range map[string]Options{
		"lengths-bottomk":    {K: 8, Seed: 42},
		"lengths-kmins":      {K: 4, Flavor: sketch.KMins, Seed: 42},
		"lengths-kpartition": {K: 4, Flavor: sketch.KPartition, Seed: 42},
	} {
		set, err := BuildSet(g, o, AlgoPrunedDijkstra)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = set
	}
	beta := make([]float64, g.NumNodes())
	for i := range beta {
		beta[i] = 1 + float64(i%7)
	}
	weighted, err := BuildWeightedSet(g, 8, 42, beta)
	if err != nil {
		t.Fatal(err)
	}
	out["lengths-weighted"] = weighted
	approx, err := BuildApproxSet(g, 8, 42, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	out["lengths-approx"] = approx
	return out
}

// TestStepCodeCanonicalBytes: whatever path assembles a frame — a build's
// freezeFrame, split then merge, a sliced partition written and read back
// — its file is the canonical encoding of its entry lists, so equal
// entries are equal bytes wherever they were put together.
func TestStepCodeCanonicalBytes(t *testing.T) {
	for name, set := range stepKinds(t) {
		f := frameOfSet(t, set)
		lists, betas := segmentLists(f)
		want := canonicalV3(headerOf(f, nil), lists, betas)
		if got := v3Bytes(t, set); !bytes.Equal(got, want) {
			t.Fatalf("%s: the built frame is not the canonical encoding of its entries (%d vs %d bytes)", name, len(got), len(want))
		}
		for _, p := range []int{2, 3, 7} {
			parts, err := SplitSketchSet(set, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, part := range parts {
				pf := frameOfSet(t, part.set)
				plists, pbetas := segmentLists(pf)
				wantPart := canonicalV3(headerOf(pf, part), plists, pbetas)
				got := fileBytes(t, nil, part)
				if !bytes.Equal(got, wantPart) {
					t.Fatalf("%s: partition %d/%d is not the canonical encoding of its entries", name, part.index, p)
				}
				back, err := ReadPartition(bytes.NewReader(got))
				if err != nil {
					t.Fatalf("%s: partition %d/%d: %v", name, part.index, p, err)
				}
				if !bytes.Equal(fileBytes(t, nil, back), wantPart) {
					t.Fatalf("%s: partition %d/%d changes bytes through ReadPartition", name, part.index, p)
				}
			}
			// Merged in reverse, from partitions that went through a file.
			for i, part := range parts {
				back, err := ReadPartition(bytes.NewReader(fileBytes(t, nil, part)))
				if err != nil {
					t.Fatal(err)
				}
				parts[len(parts)-1-i], parts[i] = back, parts[len(parts)-1-i]
			}
			merged, err := MergeSketchSets(parts)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v3Bytes(t, merged), want) {
				t.Fatalf("%s: split %d ways and merged is not the canonical encoding", name, p)
			}
		}
	}
}

// TestFreezeOverCanonicalBytes: FreezeBottomKOver with random changed
// sets — single nodes, runs, the first and last node, newcomers — block
// copies node-bit, step-bit and step ranges at every alignment and still
// writes the canonical encoding of the lists it was given.
func TestFreezeOverCanonicalBytes(t *testing.T) {
	for name, lengths := range map[string]bool{"hops": false, "lengths": true} {
		g0 := graph.PreferentialAttachment(90, 3, 9)
		g1 := graph.PreferentialAttachment(90, 4, 5) // other sketches for the same nodes, same ranks
		if lengths {
			g0, g1 = graph.WithRandomWeights(g0, 0.25, 4, 11), graph.WithRandomWeights(g1, 0.25, 4, 12)
		}
		o := Options{K: 8, Seed: 42}
		base, err := BuildSet(g0, o, AlgoPrunedDijkstra)
		if err != nil {
			t.Fatal(err)
		}
		other, err := BuildSet(g1, o, AlgoPrunedDijkstra)
		if err != nil {
			t.Fatal(err)
		}
		baseLists, _ := segmentLists(base.frame)
		otherLists, _ := segmentLists(other.frame)
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 40; trial++ {
			n := 90 + rng.Intn(3)
			lists := append([][]Entry(nil), baseLists...)
			changed := map[int32][]Entry{}
			for v := 90; v < n; v++ {
				l := []Entry{{Node: int32(v), Dist: 0, Rank: o.rankFn(0)(int32(v))}}
				lists, changed[int32(v)] = append(lists, l), l
			}
			for runs := rng.Intn(6); runs > 0; runs-- {
				at, length := rng.Intn(90), 1+rng.Intn(5)
				if rng.Intn(4) == 0 {
					at = []int{0, 89}[rng.Intn(2)]
				}
				for v := at; v < min(at+length, 90); v++ {
					lists[v], changed[int32(v)] = otherLists[v], otherLists[v]
				}
			}
			got, err := FreezeBottomKOver(base, n, changed)
			if err != nil {
				t.Fatalf("%s trial %d: %v", name, trial, err)
			}
			h := headerOf(base.frame, nil)
			h.n = uint64(n)
			if !bytes.Equal(v3Bytes(t, got), canonicalV3(h, lists, nil)) {
				t.Fatalf("%s trial %d: freezing %d changed nodes over the base is not the canonical encoding", name, trial, len(changed))
			}
			// And it is a base like any other.
			if trial%8 == 0 {
				again, err := FreezeBottomKOver(got, n, map[int32][]Entry{5: lists[5]})
				if err != nil || !bytes.Equal(v3Bytes(t, again), v3Bytes(t, got)) {
					t.Fatalf("%s trial %d: refreezing over the result: %v", name, trial, err)
				}
			}
		}
	}
}

// TestStepCodeWorstCaseSize: when no two entries of a sketch share a
// distance the code pays its bit per entry and nothing else — under 2% of
// the per-entry layout for bottom-k, under 5% for k-mins with its short
// segments — and whatever the distances, a file is header + offsets +
// 8·ceil(e·w/64) + 8·ceil(e/64) + 8·steps (+ 8·e of β) bytes, never more
// than the same entries took with 32 bits an ID.
func TestStepCodeWorstCaseSize(t *testing.T) {
	sets := stepKinds(t)
	for name, set := range sets {
		f := frameOfSet(t, set)
		data := v3Bytes(t, set)
		lists, _ := segmentLists(f)
		e, steps := int64(f.totalEntries()), int64(0)
		for _, l := range lists {
			steps += int64(countSteps(l))
		}
		w := int64(7) // 120 nodes
		if f.total != 120 || f.width() != uint(w) {
			t.Fatalf("%s: %d nodes at %d bits an ID, want 120 at 7", name, f.total, f.width())
		}
		want := int64(framePreambleSize+frameHdrSize) + 8*int64(len(lists)+1) + 8*((e*w+63)/64) + 8*((e+63)/64) + 8*steps
		if f.beta != nil {
			want += 8 * e
		}
		if int64(len(data)) != want {
			t.Errorf("%s: %d bytes, want %d (e=%d steps=%d)", name, len(data), want, e, steps)
		}
		if wide := len(wideV3(t, data)); len(data) > wide {
			t.Errorf("%s: %d bytes packed, %d with 32 bits an ID", name, len(data), wide)
		}
	}
	for name, limit := range map[string]float64{"lengths-bottomk": 1.02, "lengths-weighted": 1.02, "lengths-kmins": 1.05, "kmins": 1.05} {
		data := v3Bytes(t, sets[name])
		before := len(perEntryV3(t, data))
		if float64(len(data)) > limit*float64(before) {
			t.Errorf("%s: %d bytes step-coded, %d with a distance per entry: more than %.0f%% larger", name, len(data), before, 100*(limit-1))
		}
	}
	// The usual case, for scale: hop distances.
	data := v3Bytes(t, sets["bottomk"])
	if before := len(perEntryV3(t, data)); 2*len(data) > before {
		t.Errorf("bottomk on an unweighted graph: %d bytes step-coded, %d per entry: want under half", len(data), before)
	}
}

// v3Fixture is a committed version-3 file in a layout an earlier release
// wrote, recorded with that release's `adstool build -save` / `split`;
// nothing in this tree writes it.
type v3Fixture struct {
	file  string
	part  int // the index the file holds of a 2-way split of its build, or -1
	build func(g *graph.Graph, beta []float64) (AnySet, error)
}

// v3Fixtures names the four committed files of one earlier layout, tag
// being what their names carry for it.  All are `gen -type ba -n 60 -m 3
// -seed 9` built with `-k 4 -seed 42` and, where weighted, weights 1+i%7.
func v3Fixtures(tag string) []v3Fixture {
	uniform := func(g *graph.Graph, _ []float64) (AnySet, error) {
		return BuildSet(g, Options{K: 4, Seed: 42}, AlgoPrunedDijkstra)
	}
	return []v3Fixture{
		{"uniform_" + tag + "_k4.ads", -1, uniform},
		{"uniform_" + tag + "_k4.p1of2.ads", 1, uniform},
		{"weighted_" + tag + "_k4.ads", -1, func(g *graph.Graph, beta []float64) (AnySet, error) {
			return BuildWeightedSet(g, 4, 42, beta)
		}},
		{"kmins_base2_" + tag + "_k4.ads", -1, func(g *graph.Graph, _ []float64) (AnySet, error) {
			return BuildSet(g, Options{K: 4, Flavor: sketch.KMins, Seed: 42, BaseB: 2}, AlgoPrunedDijkstra)
		}},
	}
}

// TestV3PerEntryDistFixtures: the files of the last release before step
// coding — a distance per entry, 32 bits a node ID, flags bits 2 and 3
// clear.
func TestV3PerEntryDistFixtures(t *testing.T) {
	checkV3Fixtures(t, v3Fixtures("v3dist"), frameFlagDerivedRanks, perEntryV3)
}

// TestV3WideNodeFixtures: the files of the last release before node IDs
// were packed — step-coded, 32 bits a node ID, flags bit 3 clear.
func TestV3WideNodeFixtures(t *testing.T) {
	checkV3Fixtures(t, v3Fixtures("v3step"), frameFlagDerivedRanks|frameFlagStepDists, wideV3)
}

// checkV3Fixtures: every committed file of an earlier layout (its flags,
// less the β bit, being layout) opens through all three entry points,
// answers bit for bit like a fresh build, entry for entry, and is written
// back as the bytes a fresh build writes — which is what `adstool convert`
// does with it, no flag needed.  The fixtures also pin rewrite, the
// test-only writer of that layout, to what the release really wrote.
func checkV3Fixtures(t *testing.T, fixtures []v3Fixture, layout uint32, rewrite func(testing.TB, []byte) []byte) {
	g := graph.PreferentialAttachment(60, 3, 9)
	beta := make([]float64, g.NumNodes())
	for i := range beta {
		beta[i] = 1 + float64(i%7)
	}
	for _, fx := range fixtures {
		path := filepath.Join("testdata", fx.file)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if flags := binary.LittleEndian.Uint32(data[12:]); flags&^frameFlagBeta != layout {
			t.Fatalf("%s: flags %#x: not a file of the layout with flags %#x", fx.file, flags, layout)
		}
		fresh, err := fx.build(g, beta)
		if err != nil {
			t.Fatal(err)
		}
		want := v3Bytes(t, fresh)
		if fx.part >= 0 {
			parts, err := SplitSketchSet(fresh, 2)
			if err != nil {
				t.Fatal(err)
			}
			fresh, want = parts[fx.part].set, fileBytes(t, nil, parts[fx.part])
		}
		if !bytes.Equal(rewrite(t, want), data) {
			t.Errorf("%s: the test's writer of that layout does not turn a fresh build into the committed file", fx.file)
		}
		if len(want) >= len(data) {
			t.Errorf("%s: %d bytes as written now, %d as committed", fx.file, len(want), len(data))
		}
		streamSet, streamPart, err := ReadSketchFile(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: ReadSketchFile: %v", fx.file, err)
		}
		opened, err := OpenSketchFile(path)
		if err != nil {
			t.Fatalf("%s: OpenSketchFile: %v", fx.file, err)
		}
		mapped, err := MmapSketchFile(path)
		if err != nil {
			t.Fatalf("%s: MmapSketchFile: %v", fx.file, err)
		}
		if mmapSupported && !mapped.Mapped() {
			t.Errorf("%s: not mapped", fx.file)
		}
		streamed := newSketchFile(streamSet, streamPart, EncodeVersion, nil)
		wf := frameOfSet(t, fresh)
		for reader, sf := range map[string]*SketchFile{"ReadSketchFile": streamed, "OpenSketchFile": opened, "MmapSketchFile": mapped} {
			if sf.Version() != EncodeVersion || sf.RanksStored() || (sf.Partition() != nil) != (fx.part >= 0) {
				t.Fatalf("%s via %s: version %d, ranks stored %v, partition %v", fx.file, reader, sf.Version(), sf.RanksStored(), sf.Partition() != nil)
			}
			f := sf.frame()
			for v := int32(0); int(v) < wf.n; v++ {
				a, b := wf.Index(v), f.Index(v)
				if a.Closeness() != b.Closeness() || a.Harmonic() != b.Harmonic() || a.Neighborhood(2) != b.Neighborhood(2) || a.Total() != b.Total() {
					t.Fatalf("%s via %s: node %d answers differ from a fresh build's", fx.file, reader, f.owner(int(v)))
				}
				wantSegs, gotSegs := wf.segViews(int(v)), f.segViews(int(v))
				for s := range wantSegs {
					if len(wantSegs[s].entries()) != gotSegs[s].len() {
						t.Fatalf("%s via %s: node %d segment %d sizes differ", fx.file, reader, v, s)
					}
					for i, e := range wantSegs[s].entries() {
						if gotSegs[s].at(i) != e {
							t.Fatalf("%s via %s: node %d segment %d entry %d: %+v, fresh build %+v", fx.file, reader, v, s, i, gotSegs[s].at(i), e)
						}
					}
				}
			}
			if got := fileBytes(t, sf.Set(), sf.Partition()); !bytes.Equal(got, want) {
				t.Errorf("%s via %s: written back as %d bytes, not the %d a fresh build writes", fx.file, reader, len(got), len(want))
			}
			sf.Close()
		}
	}
}

// hostileStepFiles returns a valid whole-set bottom-k file and damaged
// copies of it, one per way its step code can lie.  trusted marks the
// damage the file openers must catch too (it would index the step column
// out of step); the rest leaves a well-formed code over invalid or
// non-canonical distances, which is the validating stream readers' to
// refuse.
func hostileStepFiles(t testing.TB) (valid []byte, damaged map[string][]byte, trusted map[string]bool) {
	t.Helper()
	set, err := BuildSet(graph.PreferentialAttachment(61, 3, 9), Options{K: 4, Seed: 42}, AlgoPrunedDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteSketchSetV3(&buf, set); err != nil {
		t.Fatal(err)
	}
	valid = buf.Bytes()
	le := binary.LittleEndian
	f := set.frame
	e := int64(f.totalEntries())
	if e%64 == 0 || f.off[1] < 3 {
		t.Fatalf("the seed set has %d entries, %d in node 0: pick one with padding bits and a longer first sketch", e, f.off[1])
	}
	stepsAt := int64(framePreambleSize + frameHdrSize - 8)
	bitsAt := int64(framePreambleSize+frameHdrSize) + 8*int64(f.n+1) + 8*packedWords(e, f.width())
	firstStepAt := bitsAt + 8*bitWords(e)
	flip := func(b []byte, bit int64) { b[bitsAt+bit/8] ^= 1 << (bit % 8) }
	step := func(b []byte, i int64, d float64) { le.PutUint64(b[firstStepAt+8*i:], math.Float64bits(d)) }
	// Node 0's sketch: owner at 0, then neighbours at 1, then at 2: a clear
	// bit inside the run at distance 1 is position 2.
	if bitAt(f.first, 2) || !bitAt(f.first, 1) || len(f.segAt(0, 0).sd.steps) < 3 {
		t.Fatal("the seed set's first sketch does not have the assumed shape")
	}
	damaged, trusted = map[string][]byte{}, map[string]bool{}
	add := func(name string, open bool, fn func(b []byte)) {
		b := append([]byte(nil), valid...)
		fn(b)
		damaged[name], trusted[name] = b, open
	}
	add("one bit more than steps", true, func(b []byte) { flip(b, 2) })
	add("one bit fewer than steps", true, func(b []byte) { flip(b, 1) })
	add("clear bit at a segment start", true, func(b []byte) { flip(b, f.off[1]); flip(b, 2) })
	add("set bit in the padding", true, func(b []byte) { flip(b, e) })
	add("set bit in the padding, count kept", true, func(b []byte) { flip(b, e); flip(b, 1) })
	add("step count past the entries", true, func(b []byte) { le.PutUint64(b[stepsAt:], uint64(e)+1) })
	add("step count overflowing the body", true, func(b []byte) { le.PutUint64(b[stepsAt:], 1<<61) })
	add("step count one short", true, func(b []byte) { le.PutUint64(b[stepsAt:], uint64(len(f.step))-1) })
	add("step count with the flag clear", true, func(b []byte) {
		le.PutUint32(b[12:], le.Uint32(b[12:])&^frameFlagStepDists)
	})
	add("equal steps", false, func(b []byte) { step(b, 2, 1) })
	add("decreasing steps", false, func(b []byte) { step(b, 1, 2); step(b, 2, 1) })
	add("NaN step", false, func(b []byte) { step(b, 1, math.NaN()) })
	add("negative step", false, func(b []byte) { step(b, 0, -1) })
	// A redundant step: the run at distance 1 split in two, by a bit and an
	// inserted step.  Entry order and every distance stay what they were;
	// only the encoding stops being canonical.
	split := append([]byte(nil), valid[:firstStepAt+16]...)
	split = le.AppendUint64(split, math.Float64bits(1))
	split = append(split, valid[firstStepAt+16:]...)
	flip(split, 2)
	le.PutUint64(split[stepsAt:], uint64(len(f.step))+1)
	damaged["split run"], trusted["split run"] = split, false
	return valid, damaged, trusted
}

// TestStepCodeRejectsHostileInput: every way the new columns can lie is
// an error — through the parser wherever it would misindex a column, and
// through the validating stream readers always — and costs no allocation
// beyond the bytes that arrived.
func TestStepCodeRejectsHostileInput(t *testing.T) {
	valid, damaged, trusted := hostileStepFiles(t)
	if _, _, err := openFrameBytes(valid); err != nil {
		t.Fatal(err)
	}
	checkHostileFiles(t, damaged, trusted)
}

// checkHostileFiles: the parser refuses every damaged file marked trusted,
// the stream reader refuses them all — as corrupt, when only it does —
// and the file openers refuse the trusted ones without allocating beyond
// the bytes that arrived.
func checkHostileFiles(t *testing.T, damaged map[string][]byte, trusted map[string]bool) {
	t.Helper()
	dir := t.TempDir()
	for name, data := range damaged {
		_, _, err := openFrameBytes(data)
		if trusted[name] && err == nil {
			t.Errorf("%s: accepted by the parser", name)
		}
		if _, _, serr := ReadSketchFile(bytes.NewReader(data)); serr == nil {
			t.Errorf("%s: accepted by the stream reader", name)
		} else if err == nil && !strings.Contains(serr.Error(), "corrupt sketch file") {
			t.Errorf("%s: stream reader: %v, want a corrupt-file error", name, serr)
		}
		if !trusted[name] {
			continue
		}
		path := filepath.Join(dir, "hostile.ads")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for opener, open := range map[string]func(string) (*SketchFile, error){"OpenSketchFile": OpenSketchFile, "MmapSketchFile": MmapSketchFile} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sf, err := open(path)
			runtime.ReadMemStats(&after)
			if err == nil {
				sf.Close()
				t.Errorf("%s: accepted by %s", name, opener)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(data))+1<<16 {
				t.Errorf("%s: %s allocated %d bytes refusing a %d-byte file", name, opener, grew, len(data))
			}
		}
	}
}

// TestReadSketchFileSizesBufferFromStat: reading a file through the
// validating stream reader holds it once, not three times over in a
// doubling buffer, because a regular file says how long it is.
func TestReadSketchFileSizesBufferFromStat(t *testing.T) {
	set, err := BuildSet(graph.PreferentialAttachment(4000, 5, 1), Options{K: 16, Seed: 42}, AlgoPrunedDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	data := v3Bytes(t, set)
	path := filepath.Join(t.TempDir(), "big.ads")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	allocated := func(read func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := read(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	fromFile := allocated(func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, _, err = ReadSketchFile(f)
		return err
	})
	fromStream := allocated(func() error {
		_, _, err := ReadSketchFile(bytes.NewReader(data))
		return err
	})
	// Beside the bytes: the 384 KB rank memo and the validation scratch.
	if limit := uint64(len(data)) + 1<<20; fromFile > limit {
		t.Errorf("reading a %d-byte file allocated %d bytes, want under %d", len(data), fromFile, limit)
	}
	if fromStream < fromFile+uint64(len(data))/2 {
		t.Logf("a plain stream of the same bytes allocated %d (file: %d): the doubling buffer is no longer the larger cost", fromStream, fromFile)
	}
}

// TestFrameIndexMatchesStandalone: the arena index of every node — views
// of the frame's own node, bit and step columns for single-segment kinds,
// of a step-coded merge for k-mins and k-partition — reads out bit for bit
// like the standalone index of the same sketch, entry by entry and step by
// step, from a whole frame and from a partition's slice of it, and while
// other goroutines build and measure the same arena.
func TestFrameIndexMatchesStandalone(t *testing.T) {
	g := func(node int32, dist float64) float64 { return float64(node%5) + 1/(1+dist) }
	for name, set := range stepKinds(t) {
		parts, err := SplitSketchSet(set, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []AnySet{set, parts[1].set} {
			f := frameOfSet(t, s)
			if _, index := MemoryOf(s); index != 0 {
				t.Fatalf("%s: %d index bytes before any query", name, index)
			}
			done := make(chan struct{})
			for w := 0; w < 3; w++ {
				go func() {
					defer func() { done <- struct{}{} }()
					for v := 0; v < f.n; v++ {
						_ = f.Index(int32(v)).Total()
						MemoryOf(s)
					}
				}()
			}
			for w := 0; w < 3; w++ {
				<-done
			}
			frame, index := MemoryOf(s)
			e := int64(f.totalEntries())
			// A weight an entry and three sums a step, plus the views; a merged
			// arena also holds its own nodes, bits and steps.
			if frame < e*int64(f.width())/8 || index < 8*e || index > 12*e+int64(f.n)*256+32*int64(len(f.step))+e/8+64 {
				t.Errorf("%s: frame %d B, index %d B for %d entries, %d nodes, %d steps", name, frame, index, e, f.n, len(f.step))
			}
			for v := 0; v < f.n; v++ {
				got, want := f.Index(int32(v)), NewHIPIndex(f.viewSketch(v))
				ge, we := got.Entries(), want.Entries()
				if len(ge) != len(we) || got.Len() != want.Len() {
					t.Fatalf("%s node %d: %d entries, standalone %d", name, f.owner(v), len(ge), len(we))
				}
				for i := range we {
					if ge[i] != we[i] || got.EntryAt(i) != we[i] {
						t.Fatalf("%s node %d entry %d: %+v / %+v, standalone %+v", name, f.owner(v), i, ge[i], got.EntryAt(i), we[i])
					}
				}
				gd, wd := got.Distances(), want.Distances()
				if len(gd) != len(wd) || len(got.cum) != len(wd) || len(got.cumD) != len(wd) || len(got.cumH) != len(wd) {
					t.Fatalf("%s node %d: %d steps (%d/%d/%d sums), standalone %d", name, f.owner(v), len(gd), len(got.cum), len(got.cumD), len(got.cumH), len(wd))
				}
				for j, d := range wd {
					if gd[j] != d || got.Neighborhood(d) != want.Neighborhood(d) || got.SumDistancesWithin(d) != want.SumDistancesWithin(d) || got.cumH[j] != want.cumH[j] {
						t.Fatalf("%s node %d step %d (distance %g) reads out differently", name, f.owner(v), j, d)
					}
				}
				if got.Total() != want.Total() || got.Closeness() != want.Closeness() || got.Harmonic() != want.Harmonic() ||
					got.EstimateQ(g) != want.EstimateQ(g) || got.EstimateQ(g) != EstimateQ(f.viewSketch(v), g) ||
					got.QuantileDistance(0.5) != want.QuantileDistance(0.5) {
					t.Fatalf("%s node %d: totals differ from the standalone index's", name, f.owner(v))
				}
			}
		}
	}
}
