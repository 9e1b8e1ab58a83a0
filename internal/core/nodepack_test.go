package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"adsketch/internal/graph"
)

// TestNodesViewMatchesSlice: a packed column read through At, AppendTo
// and copyFrom is the slice it was packed from — at every width, for
// views that start at every alignment, over runs that straddle word ends.
func TestNodesViewMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for w := uint(1); w <= 32; w++ {
		ids := make([]int32, 300)
		for i := range ids {
			ids[i] = int32(rng.Uint64() & (1<<w - 1)) // w = 32: any int32, negatives too
		}
		ids[0], ids[1] = int32(uint32(1<<w-1)), 0 // every bit of the width, then none
		col := makePackedColumn(int64(len(ids)), w)
		for i, id := range ids {
			col.put(int64(i), nodeBits(id))
		}
		if !tailClear(col.words, int64(len(ids))*int64(w)) {
			t.Fatalf("w=%d: bits past the last ID", w)
		}
		for lo := 0; lo < 130; lo++ { // every alignment of entry 0, twice over
			p := col.view(int64(lo), int64(len(ids)))
			if p.Len() != len(ids)-lo {
				t.Fatalf("w=%d lo=%d: Len %d", w, lo, p.Len())
			}
			for i := 0; i < p.Len(); i++ {
				if got := p.At(i); got != ids[lo+i] {
					t.Fatalf("w=%d lo=%d: At(%d) = %d, want %d", w, lo, i, got, ids[lo+i])
				}
			}
			for _, run := range [][2]int{{0, 0}, {0, 1}, {0, p.Len()}, {3, 70}, {p.Len() - 1, p.Len()}, {64, 129}} {
				got := p.AppendTo([]int32{-7}, run[0], run[1])
				if got[0] != -7 || len(got) != 1+run[1]-run[0] {
					t.Fatalf("w=%d lo=%d run %v: AppendTo returned %d values after the one it was given", w, lo, run, len(got)-1)
				}
				for i, id := range got[1:] {
					if id != ids[lo+run[0]+i] {
						t.Fatalf("w=%d lo=%d run %v: value %d is %d, want %d", w, lo, run, i, id, ids[lo+run[0]+i])
					}
				}
			}
		}
		// Block copies, at the same width (a bit range) and at a wider one
		// (ID by ID), to every destination alignment.
		for _, dw := range []uint{w, min(w+1, 32), 32} {
			for dpos := int64(0); dpos < 70; dpos += 3 {
				dst := makePackedColumn(dpos+200, dw)
				dst.copyFrom(dpos, &col, 5, 200)
				for i := int64(0); i < 200; i++ {
					if got := int32(dst.get(dpos + i)); got != ids[5+i] {
						t.Fatalf("copy w=%d→%d to %d: ID %d is %d, want %d", w, dw, dpos, i, got, ids[5+i])
					}
				}
				if !tailClear(dst.words, (dpos+200)*int64(dw)) || countBits(dst.words, 0, dpos*int64(dw)) != 0 {
					t.Fatalf("copy w=%d→%d to %d: bits outside the copied range", w, dw, dpos)
				}
			}
		}
	}
	for total, want := range map[int]uint{0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 10000: 14, 1 << 14: 14, 1<<14 + 1: 15, 1 << 20: 20, 1 << 30: 30, 1 << 31: 31} {
		if got := nodeWidth(total); got != want {
			t.Errorf("nodeWidth(%d) = %d, want %d", total, got, want)
		}
	}
}

// pathSet builds the sketches of the n-node path 0–1–…–(n-1), n >= 0.
func pathSet(t testing.TB, n int, o Options) *Set { return pathSetPlus(t, n, 0, o) }

// pathSetPlus builds the sketches of the n-node path and isolated more
// nodes after it.
func pathSetPlus(t testing.TB, n, isolated int, o Options) *Set {
	t.Helper()
	b := graph.NewBuilder(n+isolated, false)
	for v := 1; v < n; v++ {
		b.AddEdge(int32(v-1), int32(v))
	}
	set, err := BuildSet(b.Build(), o)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestNodeWidthBoundaries: around every node count where an ID gains a
// bit — 1, 2, 3, 2^j, 2^j+1 — a build, its splits and their merge are the
// canonical encoding at that count's width, and a freeze over a base whose
// IDs were one bit narrower is byte for byte the fresh build of the grown
// graph.
func TestNodeWidthBoundaries(t *testing.T) {
	sizes := []int{0, 1, 2, 3}
	for j := 2; j <= 9; j++ {
		sizes = append(sizes, 1<<j, 1<<j+1)
	}
	o := Options{K: 3, Seed: 42}
	for _, n := range sizes {
		set := pathSet(t, n, o)
		f := set.frame
		lists, _ := segmentLists(f)
		want := canonicalV3(headerOf(set), lists, nil)
		if got := v3Bytes(t, set); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: the build is not the canonical encoding at %d bits an ID", n, f.width())
		}
		back, err := ReadSketchSet(bytes.NewReader(want))
		if err != nil || !bytes.Equal(v3Bytes(t, back), want) {
			t.Fatalf("n=%d: read back: %v", n, err)
		}
		if n < 2 {
			continue
		}
		parts, err := SplitSketchSet(set, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i, part := range parts {
			pl, _ := segmentLists(part.frame)
			data := v3Bytes(t, part)
			if !bytes.Equal(data, canonicalV3(headerOf(part), pl, nil)) {
				t.Fatalf("n=%d: partition %d is not the canonical encoding at the whole set's width", n, i)
			}
			if parts[i], err = ReadSketchSet(bytes.NewReader(data)); err != nil {
				t.Fatalf("n=%d: partition %d: %v", n, i, err)
			}
		}
		merged, err := MergeSketchSets([]*Set{parts[1], parts[0]})
		if err != nil || !bytes.Equal(v3Bytes(t, merged), want) {
			t.Fatalf("n=%d: split and merged: %v", n, err)
		}
		// Grown from the path one node shorter, by an isolated node — every
		// other sketch is block-copied, and re-packed when n-1 was a power of
		// two — and by the path's next node, which changes whichever sketches
		// its rank lets it into.
		base := pathSet(t, n-1, o)
		for name, fresh := range map[string]*Set{"isolated": pathSetPlus(t, n-1, 1, o), "linked": set} {
			lists, _ := segmentLists(fresh.frame)
			changed := map[int32][]Entry{}
			for v := 0; v < n; v++ {
				var old []Entry
				if v < n-1 {
					c := base.frame.colsAt(v)
					old = c.entries()
				}
				if !slices.Equal(old, lists[v]) {
					changed[int32(v)] = lists[v]
				}
			}
			if name == "isolated" && len(changed) != 1 {
				t.Fatalf("n=%d: %d sketches changed by an isolated node", n, len(changed))
			}
			grown, err := FreezeBottomKOver(base, n, changed)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			if !bytes.Equal(v3Bytes(t, grown), v3Bytes(t, fresh)) {
				t.Fatalf("n=%d %s: frozen over the %d-node base (%d → %d bits an ID) is not the fresh build", n, name, n-1, base.frame.width(), grown.frame.width())
			}
		}
	}
}

// TestFreezeRejectsForeignNode: an entry naming a node the set does not
// have — beyond what the width can spell, or within it — is refused by
// the freeze paths that take caller-built lists.
func TestFreezeRejectsForeignNode(t *testing.T) {
	o := Options{K: 3, Seed: 42}
	set := pathSet(t, 5, o) // 3 bits an ID: 5, 6, 7 fit the column but not the set
	lists, _ := segmentLists(set.frame)
	for _, foreign := range []int32{5, 7, 8, 1 << 20, -1} {
		bad := append([][]Entry(nil), lists...)
		l := append([]Entry(nil), lists[2]...)
		l[len(l)-1].Node = foreign
		l[len(l)-1].Rank = o.rankFn()(foreign)
		bad[2] = l
		if _, err := FreezeBottomK(o, bad); err == nil || !strings.Contains(err.Error(), "outside [0, 5)") {
			t.Errorf("FreezeBottomK with node %d: %v", foreign, err)
		}
		if _, err := FreezeBottomKOver(set, 5, map[int32][]Entry{2: l}); err == nil || !strings.Contains(err.Error(), "outside [0, 5)") {
			t.Errorf("FreezeBottomKOver with node %d: %v", foreign, err)
		}
		if _, err := FreezePartition(Params{Kind: KindUniform, Options: o}, 1, 2, 5, bad[2:], nil); err == nil || !strings.Contains(err.Error(), "outside [0, 5)") {
			t.Errorf("FreezePartition with node %d: %v", foreign, err)
		}
	}
}

// hostileNodeFiles returns valid files and damaged copies, one per way the
// packed node column can lie.  trusted marks the damage the file openers
// must catch too — it would misplace every column after the nodes, or
// leave the file no longer the one encoding of its entries; an ID the
// column can spell but the set does not have is the validating stream
// readers' to refuse.
func hostileNodeFiles(t testing.TB) (valid, damaged map[string][]byte, trusted map[string]bool) {
	t.Helper()
	set, err := BuildSet(graph.PreferentialAttachment(61, 3, 9), Options{K: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := SplitSketchSet(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	valid = map[string][]byte{"whole": v3Bytes(t, set), "partition": v3Bytes(t, parts[1])}
	for n := 0; n <= 2; n++ {
		valid[[]string{"no nodes", "one node", "two nodes"}[n]] = v3Bytes(t, pathSet(t, n, Options{K: 4, Seed: 42}))
	}
	damaged, trusted = map[string][]byte{}, map[string]bool{}
	add := func(name string, open bool, b []byte) { damaged[name], trusted[name] = b, open }
	edit := func(b []byte, fn func(b []byte)) []byte {
		b = append([]byte(nil), b...)
		fn(b)
		return b
	}
	for _, name := range []string{"whole", "partition"} {
		data := valid[name]
		f := set.frame
		if name == "partition" {
			f = parts[1].frame
		}
		if f.total != 61 || f.width() != 6 {
			t.Fatalf("%s: %d nodes at %d bits an ID, want 61 at 6", name, f.total, f.width())
		}
		e := int64(f.totalEntries())
		nodesAt := splitV3(t, data).nodesAt
		words := packedWords(e, 6)
		if e*6%64 == 0 {
			t.Fatalf("%s: %d entries leave no spare bits in the last word of the nodes", name, e)
		}
		// Entry 1 of the first sketch follows the owner; naming a node the
		// set lacks there leaves the owner check and the order alone.
		setID := func(b []byte, i int64, id uint64) {
			col := make([]uint64, words)
			for k := range col {
				col[k] = le.Uint64(b[nodesAt+8*int64(k):])
			}
			bit := uint64(i) * 6
			col[bit>>6] &^= 63 << (bit & 63)
			col[bit>>6] |= id << (bit & 63)
			for k, w := range col {
				le.PutUint64(b[nodesAt+8*int64(k):], w)
			}
		}
		add(name+": a node bit past the last entry", true, edit(data, func(b []byte) { b[nodesAt+8*words-1] |= 0x80 }))
		short := append(append([]byte(nil), data[:nodesAt+8*(words-1)]...), data[nodesAt+8*words:]...)
		add(name+": nodes one word short", true, short)
		long := append(append(append([]byte(nil), data[:nodesAt+8*words]...), make([]byte, 8)...), data[nodesAt+8*words:]...)
		add(name+": nodes one word long", true, long)
		add(name+": an ID of 61 in a set of 61", false, edit(data, func(b []byte) { setID(b, 1, 61) }))
		add(name+": an ID of 63 in a set of 61", false, edit(data, func(b []byte) { setID(b, 1, 63) }))
		add(name+": 32-bit IDs under the packed flag", true, edit(wideV3(t, data), func(b []byte) {
			le.PutUint32(b[12:], le.Uint32(b[12:])|frameFlagPackedNodes)
		}))
		add(name+": packed IDs without the flag", true, edit(data, func(b []byte) {
			le.PutUint32(b[12:], le.Uint32(b[12:])&^frameFlagPackedNodes)
		}))
	}
	// A partition's width comes from its envelope's total, not from the
	// nodes it holds: 2^31 is refused as a count, and any other total than
	// the file was written under implies another body size.
	totalAt := framePreambleSize + 16
	for _, total := range []uint32{0, 1, 2, 31, 1 << 14, 1 << 31} {
		add(fmt.Sprintf("partition: envelope total %d", total), true, edit(valid["partition"], func(b []byte) { le.PutUint32(b[totalAt:], total) }))
	}
	// The smallest sets: one bit an ID, whatever the count.
	one := valid["one node"]
	oneNodesAt := splitV3(t, one).nodesAt
	add("one node: an ID of 1 in a set of 1", false, edit(one, func(b []byte) { b[oneNodesAt] |= 1 }))
	add("one node: a node bit past the only entry", true, edit(one, func(b []byte) { b[oneNodesAt] |= 2 }))
	add("no nodes: a word of nodes", true, append(append([]byte(nil), valid["no nodes"]...), make([]byte, 8)...))
	return valid, damaged, trusted
}

// TestPackedNodesRejectHostileInput: every way the packed node column can
// lie is an error — through the parser wherever it would misplace a column
// or leave two encodings of one entry list, through the validating stream
// readers always — and costs no allocation beyond the bytes that arrived;
// the files it was damaged from, down to the empty set, are accepted.
func TestPackedNodesRejectHostileInput(t *testing.T) {
	valid, damaged, trusted := hostileNodeFiles(t)
	for name, data := range valid {
		set, err := ReadSketchSet(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(v3Bytes(t, set), data) {
			t.Errorf("%s: changes bytes through the stream reader", name)
		}
	}
	checkHostileFiles(t, damaged, trusted)
	for name, data := range damaged {
		if !strings.Contains(name, "an ID of") {
			continue
		}
		if _, err := ReadSketchSet(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "outside [0, ") {
			t.Errorf("%s: stream reader: %v, want the node named as outside the set", name, err)
		}
	}
}

// BenchmarkNodesAppendTo: unpacking sketch-sized lists of 14-bit IDs.
func BenchmarkNodesAppendTo(b *testing.B) {
	col := makePackedColumn(1<<20, 14)
	for i := int64(0); i < 1<<20; i++ {
		col.put(i, uint64(i*2654435761%10000))
	}
	buf := make([]int32, 0, 127)
	b.SetBytes(127 * 4)
	for i := 0; i < b.N; i++ {
		lo := int64(i*127) % (1<<20 - 127)
		buf = col.view(lo, lo+127).AppendTo(buf[:0], 0, 127)
	}
}

// TestCopyBitsMatchesBitByBit: every length from nothing to a few words,
// from and to every alignment, lands exactly the bits a bit-by-bit copy
// lands and nothing beside them.
func TestCopyBitsMatchesBitByBit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := make([]uint64, 8)
	for i := range src {
		src[i] = rng.Uint64()
	}
	for n := int64(0); n <= 200; n++ {
		for srcPos := int64(0); srcPos < 70; srcPos += 7 {
			for dstPos := int64(0); dstPos < 130; dstPos += 9 {
				got, want := make([]uint64, 6), make([]uint64, 6)
				copyBits(got, dstPos, src, srcPos, n)
				for i := int64(0); i < n; i++ {
					if bitAt(src, srcPos+i) {
						setBit(want, dstPos+i)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("copyBits of %d bits from %d to %d differs from the bit-by-bit copy", n, srcPos, dstPos)
				}
			}
		}
	}
}
