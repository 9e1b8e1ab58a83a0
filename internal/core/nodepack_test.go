package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"adsketch/internal/graph"
)

// TestPackedColumnMatchesSlice: a packed column read through get is the
// slice it was packed from — at every width, from every position, over
// values that straddle word ends.
func TestPackedColumnMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for w := uint(1); w <= 32; w++ {
		vals := make([]uint64, 300)
		for i := range vals {
			vals[i] = rng.Uint64() & (1<<w - 1)
		}
		vals[0], vals[1] = 1<<w-1, 0 // every bit of the width, then none
		col := makePackedColumn(int64(len(vals)), w)
		for i, x := range vals {
			col.put(int64(i), x)
		}
		if !col.holds(int64(len(vals))) {
			t.Fatalf("w=%d: bits past the last value", w)
		}
		for i, x := range vals {
			if got := col.get(int64(i)); got != x {
				t.Fatalf("w=%d: value %d is %d, want %d", w, i, got, x)
			}
		}
	}
	for last, want := range map[int64]uint{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 9999: 14, 1<<14 - 1: 14, 1 << 14: 15, 1<<20 - 1: 20} {
		if got := offsetWidth(last); got != want {
			t.Errorf("offsetWidth(%d) = %d, want %d", last, got, want)
		}
	}
}

// randomRuns returns a random entry list's worth of node IDs below total,
// in runs — an owner's of one ID, then each strictly ascending, of the
// lengths given — and whether each entry starts a run.
func randomRuns(rng *rand.Rand, total int, lengths []int) (ids []int32, steps []bool) {
	for _, m := range append([]int{1}, lengths...) {
		m = min(m, total)
		run := rng.Perm(total)[:m]
		slices.Sort(run)
		for j, id := range run {
			ids = append(ids, int32(id))
			steps = append(steps, j == 0)
		}
	}
	return ids, steps
}

// writeNodes codes lists — their IDs, in the runs steps marks the starts
// of, back to back — as a frame's node stream, in the rank order order
// (nil: the IDs as they are) under k, a list's codes starting where the
// returned bit offsets say, and returns the stream's Nodes views.  A
// list's first run is its owner, its entry 0.  It fails the test when a
// list has no code.
func writeNodes(t testing.TB, total int, order *rankOrder, k int, lists [][]int32, steps [][]bool) []Nodes {
	t.Helper()
	var pos []int32
	if order != nil {
		pos = order.positions()
	}
	w := newNodeWriter(total, 0, pos, k)
	out := make([]Nodes, len(lists))
	var boff []int64
	for i, l := range lists {
		boff = append(boff, w.bits())
		out[i].n, out[i].steps = len(l), countTrue(steps[i])
		owner := int32(i)
		if order != nil && len(l) > 0 {
			owner = l[0]
		}
		w.list(owner, len(l), out[i].steps)
		for j, id := range l {
			w.add(id, steps[i][j])
		}
	}
	w.flush()
	boff = append(boff, w.bits())
	stream := &nodeStream{words: w.stream(), total: total, order: order, k: k}
	if w.err != nil {
		t.Fatal(w.err)
	}
	for i := range lists {
		out[i].nodeCodes = nodeCodes{s: stream, bit: boff[i], end: boff[i+1]}
		if len(lists[i]) > 0 {
			out[i].own = lists[i][0]
		}
	}
	return out
}

// countTrue returns how many of marks are set.
func countTrue(marks []bool) int {
	n := 0
	for _, m := range marks {
		if m {
			n++
		}
	}
	return n
}

func bitAt(w []uint64, i int64) bool { return w[i>>6]>>(uint(i)&63)&1 != 0 }

func setBit(w []uint64, i int64) { w[i>>6] |= 1 << (uint(i) & 63) }

// TestNodesViewMatchesSlice: lists of runs of every length, from one ID to
// every ID of the set, at node counts around the powers of two where a
// run's parameter moves, decode — through a cursor, AppendRuns and at — to
// the IDs they were coded from, in exactly the bits the reference
// (testRiceBits) works out, from every alignment of a list in the stream;
// copied as a bit range to another alignment they decode the same.
func TestNodesViewMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, total := range []int{1, 2, 3, 4, 5, 7, 8, 9, 60, 61, 63, 64, 65, 1000, 1 << 14, 1<<14 + 1, 1 << 20} {
		var lists [][]int32
		var steps [][]bool
		for trial := 0; trial < 24; trial++ {
			var lengths []int
			for r := rng.Intn(6); r >= 0; r-- {
				lengths = append(lengths, 1+rng.Intn(min(total, 1+rng.Intn(200))))
			}
			if trial == 0 {
				lengths = []int{total} // every ID of the set in one run
			}
			ids, marks := randomRuns(rng, min(total, 5000), lengths)
			lists, steps = append(lists, ids), append(steps, marks)
		}
		views := writeNodes(t, total, nil, 0, lists, steps)
		for i, p := range views {
			want := lists[i]
			l := make([]Entry, len(want))
			d := 0.0
			for j, id := range want {
				if steps[i][j] {
					d++
				}
				l[j] = Entry{Node: id, Dist: d}
			}
			if got := p.end - p.bit; got != testRiceBits(l, uint64(total), nil, 0) {
				t.Fatalf("total %d list %d: %d bits of codes, the reference works out %d", total, i, got, testRiceBits(l, uint64(total), nil, 0))
			}
			got, _, exact := p.AppendRuns([]int32{-7}, nil)
			if !exact || got[0] != -7 || !slices.Equal(got[1:], want) {
				t.Fatalf("total %d list %d: decoded %v (exact %v), want %v", total, i, got[1:], exact, want)
			}
			c := p.cursor()
			for j, id := range want {
				if got := c.Next(); got != id {
					t.Fatalf("total %d list %d: the cursor's entry %d is %d, want %d", total, i, j, got, id)
				}
			}
			if !c.Done() {
				t.Fatalf("total %d list %d: the cursor is not done at the list's end", total, i)
			}
			// The same codes, a bit range copied behind every alignment.
			for shift := int64(0); shift < 64; shift += 13 {
				w := newNodeWriter(total, 0, nil, 0)
				w.nacc = uint(shift) // zeros
				w.copy(p.s.words, p.bit, p.end-p.bit)
				q, end := p, w.bits()
				q.s, q.bit, q.end = &nodeStream{words: w.stream(), total: total}, shift, end
				if got, _, _ := q.AppendRuns(nil, nil); !slices.Equal(got, want) {
					t.Fatalf("total %d list %d copied to bit %d: %v, want %v", total, i, shift, got, want)
				}
			}
		}
	}
	for _, c := range []struct{ total, m, b int }{{1, 1, 0}, {3, 2, 0}, {4, 2, 1}, {7, 2, 1}, {8, 2, 2}, {10000, 1, 13}, {10000, 16, 9}, {10000, 10000, 0}, {1 << 30, 1, 30}} {
		if got := riceParam(c.total, c.m); got != uint(c.b) {
			t.Errorf("riceParam(%d, %d) = %d, want %d", c.total, c.m, got, c.b)
		}
	}
}

// TestNodeCursorStaysInRange: bits that are not the codes of a list — too
// few for its entries, too many, no stop bit at all — decode to some IDs
// without a read outside the list's bits, whatever those hold, and Done
// says so; the codes of the list one bit shorter or longer than they are
// are not Done either.
func TestNodeCursorStaysInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ids, steps := randomRuns(rng, 1000, []int{3, 40, 1, 17})
	valid := writeNodes(t, 1000, nil, 0, [][]int32{ids}, [][]bool{steps})[0]
	for _, c := range []struct {
		name   string
		bit    int64
		end    int64
		exact  bool
		filler uint64
	}{
		{"the list", valid.bit, valid.end, true, 0},
		{"a bit short", valid.bit, valid.end - 1, false, 0},
		{"a bit long", valid.bit, valid.end + 1, false, 0},
		{"half its bits", valid.bit, valid.end / 2, false, 0},
		{"no bits", valid.bit, valid.bit, false, 0},
	} {
		for _, filler := range []uint64{0, ^uint64(0)} {
			// The list's bits within words of filler, and nothing past its
			// last word: a read beyond would panic, one outside its bits
			// would see the filler.
			words := make([]uint64, bitWords(c.end+64)+1)
			for i := range words {
				words[i] = filler
			}
			for i := int64(0); i < c.end-c.bit; i++ {
				at := 64 + i
				words[at>>6] &^= 1 << (at & 63)
				if c.bit+i < valid.end && bitAt(valid.s.words, c.bit+i) {
					setBit(words, at)
				}
			}
			p := valid
			p.s = &nodeStream{words: words[:bitWords(64+c.end-c.bit)], total: valid.s.total}
			p.bit, p.end = 64, 64+c.end-c.bit
			got, _, exact := p.AppendRuns(nil, nil)
			if exact != c.exact || len(got) != len(ids) {
				t.Fatalf("%s, filler %#x: %d IDs, exact %v; want %d, %v", c.name, filler, len(got), exact, len(ids), c.exact)
			}
			if filler == 0 {
				continue
			}
			clear := &nodeStream{words: make([]uint64, len(p.s.words)), total: p.s.total}
			for i := int64(0); i < c.end-c.bit; i++ {
				if bitAt(words, 64+i) {
					setBit(clear.words, 64+i)
				}
			}
			p.s = clear
			if again, _, _ := p.AppendRuns(nil, nil); !slices.Equal(again, got) {
				t.Fatalf("%s: the bits around the list change what it decodes to", c.name)
			}
		}
	}
	// Past its last entry a cursor reads zeros, and is not done.
	c := valid.cursor()
	for range ids {
		c.Next()
	}
	c.Next()
	if c.Done() {
		t.Error("a cursor read past the list's last entry is done")
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
// bit — 1, 2, 3, 2^j, 2^j+1, where runs' Rice parameters move — a build,
// its splits and their merge are the canonical encoding at that count, and
// a freeze over a base of one node fewer, whose runs were coded under the
// smaller count, is byte for byte the fresh build of the grown graph.
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
			t.Fatalf("n=%d: the build is not the canonical encoding", n)
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
				t.Fatalf("n=%d: partition %d is not the canonical encoding under the whole set's count", n, i)
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
		// other sketch is block-copied, and coded again where n gives one of
		// its runs another parameter — and by the path's next node, which
		// changes whichever sketches its rank lets it into.
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
				t.Fatalf("n=%d %s: frozen over the %d-node base is not the fresh build", n, name, n-1)
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

// TestFreezeRefusesListWithoutItsOwner: a rank-ordered list's entry 0 has
// no code — the decoder puts the owner there — so a list whose entry 0 is
// another node, the owner dropped or put behind it, has none: every
// freeze path refuses it, naming the list.
func TestFreezeRefusesListWithoutItsOwner(t *testing.T) {
	o := Options{K: 3, Seed: 42}
	set := pathSet(t, 6, o)
	lists, _ := segmentLists(set.frame)
	rank := o.rankFn()
	for name, l := range map[string][]Entry{
		"owner dropped":             lists[2][1:],
		"a node before the owner":   append([]Entry{{Node: 1, Rank: rank(1)}}, lists[2]...),
		"the owner at distance one": append([]Entry{{Node: 1, Rank: rank(1)}, {Node: 2, Dist: 1, Rank: rank(2)}}, lists[2][1:]...),
	} {
		bad := slices.Clone(lists)
		bad[2] = l
		_, errK := FreezeBottomK(o, bad)
		_, errL := FreezeLists(Params{Kind: KindUniform, Options: o}, 0, 0, len(bad), bad, nil, true)
		_, errO := FreezeBottomKOver(set, len(bad), map[int32][]Entry{2: l})
		_, errP := FreezePartition(Params{Kind: KindUniform, Options: o}, 0, 2, len(bad), bad[:3], nil)
		for what, err := range map[string]error{"FreezeBottomK": errK, "FreezeLists": errL, "FreezeBottomKOver": errO, "FreezePartition": errP} {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("ADS(2) entry 0 (node %d) is not its owner", l[0].Node)) {
				t.Errorf("%s, %s: %v, want ADS(2) refused for its entry 0", name, what, err)
			}
		}
	}
}

// TestListsHoldTheirOwnerAlone: a second entry at distance 0, which no
// graph makes, is refused by every kind's validator and every freeze in
// the same words, before or while its list is coded.
func TestListsHoldTheirOwnerAlone(t *testing.T) {
	o := Options{K: 3, Seed: 42}
	set := pathSet(t, 6, o)
	lists, _ := segmentLists(set.frame)
	rank := o.rankFn()
	l := []Entry{{Node: 2, Rank: rank(2)}, {Node: 5, Rank: rank(5)}}
	bad := slices.Clone(lists)
	bad[2] = l
	weighted := colsFromEntries(l)
	weighted.beta = []float64{1, 1}
	_, errK := FreezeBottomK(o, bad)
	_, errL := FreezeLists(Params{Kind: KindUniform, Options: o}, 0, 0, len(bad), bad, nil, true)
	_, errO := FreezeBottomKOver(set, len(bad), map[int32][]Entry{2: l})
	_, errP := FreezePartition(Params{Kind: KindUniform, Options: o}, 0, 2, len(bad), bad[:3], nil)
	for what, err := range map[string]error{
		"ADS.Validate":         adsOf(2, 3, l).Validate(),
		"WeightedADS.Validate": (&WeightedADS{k: 3, node: 2, c: weighted}).Validate(),
		"validateApproxView":   validateApproxView(adsOf(2, 3, l)),
		"FreezeBottomK":        errK, "FreezeLists": errL, "FreezeBottomKOver": errO, "FreezePartition": errP,
	} {
		if err == nil || !strings.Contains(err.Error(), "ADS(2) does not start with the owner alone at distance 0") {
			t.Errorf("%s: %v, want ADS(2) refused", what, err)
		}
	}
}

// hostileNodeFiles returns valid files and damaged copies, one per way the
// node codes can lie.  trusted marks the damage the file openers must
// catch too — it would misplace every column after the nodes, send a
// decoder outside the stream, or leave the file no longer the one encoding
// of its entries; codes that are not the codes of their sketch's entries,
// or spell an ID the set does not have, are the validating stream readers'
// to refuse.
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
	rebuilt := func(b []byte, fn func(p *v3Parts)) []byte {
		p := splitV3(t, b)
		fn(&p)
		return p.bytes()
	}
	for _, name := range []string{"whole", "partition"} {
		data := valid[name]
		s := set
		if name == "partition" {
			s = parts[1]
		}
		f := s.frame
		p := splitV3(t, data)
		bits, last := int64(p.h.numNodeBits), len(p.boffs)-1
		if f.total != 61 || bits%64 == 0 || int64(len(p.boffs))*int64(testWidth(uint64(bits)+1))%64 == 0 {
			t.Fatalf("%s: %d nodes, %d bits of node codes, %d bit offsets: want 61 nodes and spare bits after the codes and the offsets", name, f.total, bits, len(p.boffs))
		}
		words := bitWords(bits)
		add(name+": a node bit past the last code", true, edit(data, func(b []byte) { b[p.nodesAt+8*words-1] |= 0x80 }))
		add(name+": a bit offset bit past the last", true, edit(data, func(b []byte) { b[p.nodesAt-1] |= 0x80 }))
		short := append(append([]byte(nil), data[:p.nodesAt+8*(words-1)]...), data[p.nodesAt+8*words:]...)
		add(name+": nodes one word short", true, short)
		long := append(append(append([]byte(nil), data[:p.nodesAt+8*words]...), make([]byte, 8)...), data[p.nodesAt+8*words:]...)
		add(name+": nodes one word long", true, long)
		// The bit offsets place every sketch's codes in the stream.
		add(name+": bit offsets that decrease", true, rebuilt(data, func(p *v3Parts) { p.boffs[3], p.boffs[4] = p.boffs[4], p.boffs[3] }))
		// A sketch of its owner alone takes no bits, so only the stream
		// readers can tell one of more entries whose codes are gone.
		add(name+": a sketch with no node codes", false, rebuilt(data, func(p *v3Parts) { p.boffs[2] = p.boffs[1] }))
		add(name+": bit offsets that start past 0", true, rebuilt(data, func(p *v3Parts) { p.boffs[0] = 1 }))
		add(name+": bit offsets that end short of the codes", true, rebuilt(data, func(p *v3Parts) { p.boffs[last]-- }))
		add(name+": bit offsets that end past the codes", true, rebuilt(data, func(p *v3Parts) { p.boffs[last]++ }))
		add(name+": fewer bits of node codes than entries", true, rebuilt(data, func(p *v3Parts) { p.h.numNodeBits = p.h.numEntries - 1 }))
		add(name+": 65 bits of node codes an entry", true, rebuilt(data, func(p *v3Parts) { p.h.numNodeBits = 65 * p.h.numEntries }))
		// Bit 5 is the layout: set on fixed-width IDs, clear on codes.
		add(name+": fixed-width IDs under the Rice flag", true, edit(compactV3(t, data), func(b []byte) {
			le.PutUint32(b[12:], le.Uint32(b[12:])|frameFlagRiceNodes)
		}))
		add(name+": Rice codes without the flag", true, edit(data, func(b []byte) {
			le.PutUint32(b[12:], le.Uint32(b[12:])&^frameFlagRiceNodes)
		}))
		// Bits 6 and 7 are a uniform set's: either clear on its codes, or on
		// the codes of its IDs as they are or of one Rice parameter a run
		// (the retired 0x3e and 0x7e layouts, which adsconvert reads), the
		// file is refused; both set on those codes, they read as codes that
		// are not those of the set's entries.
		for _, bit := range []uint32{frameFlagRankNodes, frameFlagAdaptNodes} {
			add(fmt.Sprintf("%s: rank-ordered codes under flags %#x", name, layoutFlags(uint32(KindUniform))&^bit), true, edit(data, func(b []byte) {
				le.PutUint32(b[12:], le.Uint32(b[12:])&^bit)
			}))
		}
		add(name+": the IDs' own codes, the retired uniform layout", true, riceV3(t, data))
		add(name+": one parameter a run, the retired rank-ordered layout", true, rankedV3(t, data))
		add(name+": the rank flags on the IDs' own codes", false, edit(riceV3(t, data), func(b []byte) {
			le.PutUint32(b[12:], le.Uint32(b[12:])|frameFlagsRanked)
		}))
		add(name+": the adapt flag on one parameter a run", false, edit(rankedV3(t, data), func(b []byte) {
			le.PutUint32(b[12:], le.Uint32(b[12:])|frameFlagAdaptNodes)
		}))
		// Within the stream the codes are trusted: the stream readers decode
		// every sketch, and refuse codes that run past their sketch's bits or
		// stop short of them, and IDs the set does not have.
		add(name+": a sketch's codes a bit into the next sketch's", false, rebuilt(data, func(p *v3Parts) { p.boffs[1]++ }))
		// A uniform sketch's codes start with its first coded run length's,
		// the owner having none: 64 zeros ahead of it grow the length past
		// the sketch's entries.
		add(name+": a run length past its sketch's entries", false, rebuilt(data, func(p *v3Parts) {
			v := 0
			for p.soffs[v+1]-p.soffs[v] < 3 {
				v++
			}
			p.nodes = insertZeros(p.nodes, int64(p.boffs[v]), 64)
			for u := v + 1; u < len(p.boffs); u++ {
				p.boffs[u] += 64
			}
			p.h.numNodeBits += 64
		}))
		add(name+": a code bit flipped", false, edit(data, func(b []byte) { b[p.nodesAt+3] ^= 0x10 }))
		// A run's rank-order positions ascend below its bound, which the
		// gaps of its codes can only say so much of: a position at the
		// bound, or past the set's last (the reference codes an ID outside
		// the set as itself), is refused as no code.  Positions that do not
		// ascend have no gaps to spell them.
		lists, _ := segmentLists(f)
		for _, id := range []int32{61, 63} {
			bad := slices.Clone(lists)
			l := slices.Clone(lists[0])
			l[len(l)-1].Node = id // the last of its run, whatever its distance
			bad[0] = l
			add(fmt.Sprintf("%s: a position of %d in a set of 61", name, id), false, canonicalV3(headerOf(s), bad, nil))
		}
		bad, v, at := atBound(t, f, lists)
		add(fmt.Sprintf("%s: ADS(%d) entry %d at its run's bound", name, f.owner(v), at), false, canonicalV3(headerOf(s), bad, nil))
	}
	// A partition's codes' parameters come from its envelope's total, not
	// from the nodes it holds: 2^31 is refused as a count, and any other
	// total than the file was written under puts the partition's range
	// elsewhere.
	totalAt := framePreambleSize + 16
	for _, total := range []uint32{0, 1, 2, 31, 1 << 14, 1 << 31} {
		add(fmt.Sprintf("partition: envelope total %d", total), true, edit(valid["partition"], func(b []byte) { le.PutUint32(b[totalAt:], total) }))
	}
	// The smallest sets: one bit of code for the only ID of a set of one.
	one := valid["one node"]
	oneNodesAt := splitV3(t, one).nodesAt
	add("one node: a position of 1 in a set of 1", false, canonicalV3(headerOf(pathSet(t, 1, Options{K: 4, Seed: 42})), [][]Entry{{{Node: 0}, {Node: 1, Dist: 1}}}, nil))
	add("one node: a step offset bit past the only sketch's", true, edit(one, func(b []byte) { b[oneNodesAt-1] |= 0x80 }))
	add("no nodes: a word of nodes", true, append(append([]byte(nil), valid["no nodes"]...), make([]byte, 8)...))
	return valid, damaged, trusted
}

// insertZeros returns the bit vector b (bytes, little-endian) with k zero
// bits put in at bit at, padded to a whole word.
func insertZeros(b []byte, at, k int64) []byte {
	n := int64(len(b)) * 8
	out := make([]byte, (n+k+63)/64*8)
	for i := int64(0); i < n; i++ {
		if b[i/8]>>(i%8)&1 != 0 {
			j := i
			if i >= at {
				j += k
			}
			out[j/8] |= 1 << (j % 8)
		}
	}
	return out
}

// TestNodeCursorRefusesBadRuns: a list's runs are its entry and step
// counts' — the owner's alone, one a step after it — and a decoder that
// reads a run length past the entries left, or counts that leave a run
// no entry, or more entries than the runs hold, reads as many IDs as the
// list has, within its bits, and is not done; a writer refuses a list
// whose first run is more than its owner.
func TestNodeCursorRefusesBadRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ids, steps := randomRuns(rng, 1000, []int{5, 1, 1}) // 8 entries in 4 runs: run 1's length coded as 4
	valid := writeNodes(t, 1000, nil, 0, [][]int32{ids}, [][]bool{steps})[0]
	for _, c := range []struct {
		name     string
		n, steps int
	}{
		{"a run length past the entries", 7, 4}, // the same mean run, so the same parameter
		{"a zero-length run", 3, 4},
		{"more runs than the steps", 8, 3},
		{"fewer runs than the steps", 8, 5},
		{"no runs", 8, 0},
	} {
		p := valid
		p.n, p.steps = c.n, c.steps
		got, ends, exact := p.AppendRuns(nil, nil)
		if exact || len(got) != c.n || len(ends) != c.steps || len(ends) > 0 && ends[len(ends)-1] != int32(c.n) {
			t.Errorf("%s: %d IDs, runs ending at %v, exact %v", c.name, len(got), ends, exact)
		}
	}
	if _, _, exact := valid.AppendRuns(nil, nil); !exact {
		t.Error("the valid list does not decode exactly")
	}
	w := newNodeWriter(1000, 0, nil, 0)
	w.list(7, 3, 2)
	w.add(7, true)
	w.add(9, false)
	w.add(3, true)
	w.flush()
	if w.err == nil || !strings.Contains(w.err.Error(), "ADS(7) does not start with the owner alone at distance 0") {
		t.Errorf("a second entry at the owner's distance: %v", w.err)
	}
}

// TestPackedNodesRejectHostileInput: every way the node codes can lie is an
// error — through the parser wherever it would misplace a column, send a
// decoder outside the stream or leave two encodings of one entry list,
// through the validating stream readers always — and costs no allocation
// beyond the bytes that arrived; the files it was damaged from, down to
// the empty set, are accepted.
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
		if !strings.Contains(name, "a position of") && !strings.Contains(name, "bound") {
			continue
		}
		if _, err := ReadSketchSet(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "node codes are not the codes") {
			t.Errorf("%s: stream reader: %v, want the codes refused", name, err)
		}
	}
}

// atBound returns lists with one entry of one of them replaced by the node
// at its run's bound — the k-th smallest rank-order position of the
// entries at smaller distances, which no bottom-k sketch holds there — and
// which list and entry that is: the last entry of the first run that has k
// entries before it, of the first list that has such a run.
func atBound(t testing.TB, f *Frame, lists [][]Entry) (bad [][]Entry, v, at int) {
	t.Helper()
	perm, pos := f.node.order.nodes(), f.node.order.positions()
	for v, l := range lists {
		var earlier []int32
		for i := 0; i < len(l); {
			end := i + 1
			for end < len(l) && l[end].Dist == l[i].Dist {
				end++
			}
			if len(earlier) >= f.p.K {
				slices.Sort(earlier)
				bad = slices.Clone(lists)
				bad[v] = slices.Clone(l)
				bad[v][end-1].Node = perm[earlier[f.p.K-1]]
				bad[v][end-1].Rank = f.by.rank(bad[v][end-1].Node, 0)
				return bad, v, end - 1
			}
			for _, e := range l[i:end] {
				earlier = append(earlier, pos[e.Node])
			}
			i = end
		}
	}
	t.Fatal("no run has k entries before it")
	return nil, 0, 0
}

// TestFreezeRefusesEntryPastBound: a hand-edited list whose entry breaks
// its run's bound — a rank no bottom-k sketch holds after the entries
// before it — has no code: FreezeBottomK, FreezeLists, FreezePartition and
// FreezeBottomKOver refuse it, naming the entry, and clamp nothing.
func TestFreezeRefusesEntryPastBound(t *testing.T) {
	o := Options{K: 4, Seed: 42}
	set, err := BuildSet(graph.PreferentialAttachment(61, 3, 9), o)
	if err != nil {
		t.Fatal(err)
	}
	lists, _ := segmentLists(set.frame)
	bad, v, at := atBound(t, set.frame, lists)
	want := fmt.Sprintf("ADS(%d) entry %d ", v, at)
	check := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "no bottom-k sketch holds it") {
			t.Errorf("%s: %v, want entry %d of ADS(%d) refused past its run's bound", what, err, at, v)
		}
	}
	_, err = FreezeBottomK(o, bad)
	check("FreezeBottomK", err)
	_, err = FreezeLists(Params{Kind: KindUniform, Options: o}, 0, 0, len(bad), bad, nil, true)
	check("FreezeLists", err)
	_, err = FreezeBottomKOver(set, len(bad), map[int32][]Entry{int32(v): bad[v]})
	check("FreezeBottomKOver", err)
	lo, hi := splitSpan(1, 2, len(bad))
	if v >= lo && v < hi {
		_, err = FreezePartition(Params{Kind: KindUniform, Options: o}, 1, 2, len(bad), bad[lo:hi], nil)
		check("FreezePartition", err)
	}
	// The same entries of an approximate set, whose codes are of the IDs as
	// they are, have theirs.
	if _, err := FreezeLists(Params{Kind: KindApprox, Options: o}, 0, 0, len(bad), bad, nil, false); err != nil && strings.Contains(err.Error(), "bottom-k") {
		t.Errorf("an approximate set's entries refused by the bound: %v", err)
	}
}

// BenchmarkNodesAppendRuns: decoding sketch-sized lists — 127 IDs below
// 10000 in five runs of equal distance, the owner's first, as at
// PA(10000,5), k=16.
func BenchmarkNodesAppendRuns(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lists := make([][]int32, 64)
	steps := make([][]bool, len(lists))
	for i := range lists {
		lists[i], steps[i] = randomRuns(rng, 10000, []int{6, 30, 70, 20})
	}
	views := writeNodes(b, 10000, nil, 0, lists, steps)
	buf, ends := make([]int32, 0, 127), make([]int32, 0, 5)
	b.SetBytes(127 * 4)
	for i := 0; i < b.N; i++ {
		buf, ends, _ = views[i%len(views)].AppendRuns(buf[:0], ends[:0])
	}
}

// BenchmarkFreezeGrownNodeCount: one isolated node added to the
// repository benchmark's set, PA(10000, 5) of graph seed 1, k=16, rank
// seed 42 — a freeze that grows the node count, so every kept list's
// positions move and are coded again, on every core.
func BenchmarkFreezeGrownNodeCount(b *testing.B) {
	o := Options{K: 16, Seed: 42}
	base, err := BuildSet(graph.PreferentialAttachment(10000, 5, 1), o)
	if err != nil {
		b.Fatal(err)
	}
	changed := map[int32][]Entry{10000: {{Node: 10000, Rank: o.rankFn()(10000)}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FreezeBottomKOver(base, 10001, changed); err != nil {
			b.Fatal(err)
		}
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

// TestNodeCodeLongQuotient: a run whose first code's quotient outruns a
// word, which the writer fills with zeros a half word at a time, codes to
// the bits the reference works out and decodes back.
func TestNodeCodeLongQuotient(t *testing.T) {
	total, m := 1<<30, 40
	if b := riceParam(total, m); (total-m)>>b+1+int(b) <= 64 {
		t.Fatalf("the first code takes %d bits, no more than a word", (total-m)>>b+1+int(b))
	}
	ids, steps := make([]int32, m+1), make([]bool, m+1)
	l := make([]Entry, m+1)
	steps[0], steps[1] = true, true // the owner, node 0, then the run
	for j := 1; j <= m; j++ {
		ids[j], l[j] = int32(total-m+j-1), Entry{Node: int32(total - m + j - 1), Dist: 1}
	}
	p := writeNodes(t, total, nil, 0, [][]int32{ids}, [][]bool{steps})[0]
	if got := p.end - p.bit; got != testRiceBits(l, uint64(total), nil, 0) {
		t.Fatalf("%d bits of codes, the reference works out %d", got, testRiceBits(l, uint64(total), nil, 0))
	}
	if got, _, exact := p.AppendRuns(nil, nil); !exact || !slices.Equal(got, ids) {
		t.Fatalf("decoded %v (exact %v), want %v", got, exact, ids)
	}
}

// TestNodeCodeDenseThenFar: a star whose centre's neighbours hold the 62
// lowest rank-order positions and the highest, k=64, n=10^5 — fewer than
// k neighbours, so every list holds them all, and each run is dense from
// the bottom of [0, n) and then far: the adaptive parameter, driven down
// by the small gaps, stops at its floor, so the far gap's code stays short
// and the set's codes under the 64 bits an entry a header admits.  The
// file reads back, and a freeze that grows the node count, which codes
// every list again, writes the bytes of a fresh build.
func TestNodeCodeDenseThenFar(t *testing.T) {
	const n, k = 100000, 64
	o := Options{K: k, Seed: 42}
	perm := newRankOrder(Params{Kind: KindUniform, Options: o}, n).nodes()
	star := func(nodes int) *graph.Graph {
		b := graph.NewBuilder(nodes, false)
		for _, p := range append(rangeInt32(0, k-2), n-1) {
			b.AddEdge(perm[n/2], perm[p])
		}
		return b.Build()
	}
	set, err := BuildSet(star(n), o)
	if err != nil {
		t.Fatal(err)
	}
	if h := headerOf(set); h.numNodeBits > 64*h.numEntries || h.numNodeBits > 50*(h.numEntries-uint64(n)) {
		t.Fatalf("%d bits of node codes for %d entries, %d of them owners", h.numNodeBits, h.numEntries, n)
	}
	data := v3Bytes(t, set)
	if _, err := ReadSketchSet(bytes.NewReader(data)); err != nil {
		t.Fatalf("the written set does not read back: %v", err)
	}
	grown, err := FreezeBottomKOver(set, n+1, map[int32][]Entry{n: {{Node: n, Rank: o.rankFn()(n)}}})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildSet(star(n+1), o)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v3Bytes(t, grown), v3Bytes(t, fresh)) {
		t.Fatal("the grown freeze's bytes differ from a fresh build's")
	}
}

// rangeInt32 returns lo, lo+1, ..., hi-1.
func rangeInt32(lo, hi int32) []int32 {
	s := make([]int32, 0, hi-lo)
	for x := lo; x < hi; x++ {
		s = append(s, x)
	}
	return s
}

// FuzzNodeCode: a random list — runs of strictly ascending IDs below a
// node count, their lengths drawn from the input — round-trips through the
// node writer and every decoder, its IDs coded as they are and, under a
// random rank order of a random node count (its ranks base-2 rounded, so
// tied, for odd seeds) and a random k up to 64, as rank-order positions
// below each run's bound, their Rice parameters adapted gap by gap (a
// bottom-k list drawn under that order, its owner first and alone, and one
// whose run is dense from the bottom of the order and then far); and the
// input's bytes taken as a list's code bits, under a step count also drawn
// from them, decode without a panic, in both codings, to the same IDs
// whatever the bits around the list hold — no read outside its range — through
// AppendRuns, a cursor's Next and the index's weights alike, the adaptive
// parameter's sum and its b bounded by the run's.
func FuzzNodeCode(f *testing.F) {
	f.Add(uint32(10000), int64(1), []byte{16, 3, 40})
	f.Add(uint32(1), int64(2), []byte{0xff})
	f.Add(uint32(61), int64(3), []byte{61, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(uint32(1<<30), int64(4), []byte{1, 1, 1, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0x7f})
	f.Add(uint32(300), int64(5), []byte{0, 7, 30, 200, 1, 0xff, 9})
	f.Add(uint32(4094), int64(63), []byte{62, 0})
	// Real node streams' first bytes as the arbitrary bits: a set's now, run
	// lengths among the gaps, and in the two layouts they replaced, 0xfe's
	// adapted gaps and 0x3e's IDs' own codes, with step bits.
	set, err := BuildSet(graph.PreferentialAttachment(61, 3, 9), Options{K: 4, Seed: 42})
	if err != nil {
		f.Fatal(err)
	}
	data := v3Bytes(f, set)
	for i, b := range [][]byte{data, adaptiveV3(f, data), riceV3(f, data)} {
		le := binary.LittleEndian
		n, e, bits := le.Uint64(b[56:]), le.Uint64(b[64:]), le.Uint64(b[88:])
		at := 96 + 8*(((n+1)*testWidth(e+1)+63)/64) + 8*(((n+1)*testWidth(bits+1)+63)/64)
		if i == 0 {
			at = uint64(splitV3(f, b).nodesAt)
		}
		f.Add(uint32(61), int64(3*i+1), b[at:at+16])
		f.Add(uint32(61), int64(3*i+3), b[at:at+16])
	}
	f.Fuzz(func(t *testing.T, count uint32, seed int64, raw []byte) {
		total := int(count%(1<<30)) + 1
		rng := rand.New(rand.NewSource(seed))
		// The round trip: an owner, then a run per input byte, of its
		// value's length.
		ids, steps := []int32{int32(rng.Intn(total))}, []bool{true}
		for _, x := range raw[:min(len(raw), 8)] {
			m := min(int(x)+1, total)
			run := map[int32]bool{}
			for len(run) < m {
				run[int32(rng.Intn(total))] = true
			}
			sorted := make([]int32, 0, m)
			for id := range run {
				sorted = append(sorted, id)
			}
			slices.Sort(sorted)
			for j, id := range sorted {
				ids, steps = append(ids, id), append(steps, j == 0)
			}
		}
		p := writeNodes(t, total, nil, 0, [][]int32{ids}, [][]bool{steps})[0]
		if got, _, exact := p.AppendRuns(nil, nil); !exact || !slices.Equal(got, ids) {
			t.Fatalf("total %d: %v decoded as %v (exact %v)", total, ids, got, exact)
		}
		// A rank order of up to 2^12 nodes, and a bottom-k list under it.
		small, k := total%(1<<12)+1, 1+int(uint64(seed)%64)
		order := fuzzOrder(seed, small)
		// The adaptive parameter's worst case first: its owner, then a run
		// of the lowest positions and the highest, in under 50 bits a coded
		// entry, the floor's bound, below the 64 a header admits.
		perm, self := order.nodes(), int32(rng.Intn(small))
		ids, steps = []int32{perm[self]}, []bool{true}
		var run []int32
		for x := int32(0); x < int32(small) && len(run) < k-1; x++ {
			if x != self {
				run = append(run, perm[x])
			}
		}
		if far := perm[small-1]; k > 1 && far != perm[self] && !slices.Contains(run, far) {
			run = append(run, far)
		}
		slices.Sort(run)
		for j, id := range run {
			ids, steps = append(ids, id), append(steps, j == 0)
		}
		p = writeNodes(t, small, order, k, [][]int32{ids}, [][]bool{steps})[0]
		if got, _, exact := p.AppendRuns(nil, nil); !exact || !slices.Equal(got, ids) || p.end-p.bit >= 50*int64(max(len(run), 1)) {
			t.Fatalf("%d nodes in rank order, k=%d: %v decoded as %v (exact %v) from %d bits", small, k, ids, got, exact, p.end-p.bit)
		}
		ids, steps = fuzzRankedList(rng, order, k, raw[:min(len(raw), 8)])
		p = writeNodes(t, small, order, k, [][]int32{ids}, [][]bool{steps})[0]
		if got, _, exact := p.AppendRuns(nil, nil); !exact || !slices.Equal(got, ids) {
			t.Fatalf("%d nodes in rank order, k=%d: %v decoded as %v (exact %v)", small, k, ids, got, exact)
		}
		c := p.cursor()
		for j, id := range ids {
			if got := c.Next(); got != id {
				t.Fatalf("%d nodes in rank order, k=%d: the cursor's entry %d is %d, want %d", small, k, j, got, id)
			}
		}
		w := make([]float64, len(ids))
		if !rankedWeights(&p, w, nil) {
			t.Fatalf("%d nodes in rank order, k=%d: the weights' decoder is not done", small, k)
		}
		r := make([]float64, len(ids))
		for j, id := range ids {
			r[j] = order.ranks[slices.Index(order.perm, id)]
		}
		if want := hipWeightsBottomK(r, k, newKSmallest(k), nil); !slices.Equal(w, want) {
			t.Fatalf("%d nodes in rank order, k=%d: weights %v, want %v", small, k, w, want)
		}
		// Arbitrary bits: the input as the codes of a list of an entry an
		// input byte, in as many runs as the bytes whose lowest bit is set
		// (the first always starts one) — or one more run than entries —
		// between words of filler.
		n := len(raw)
		bits := int64(8 * n)
		own := int32(rng.Intn(small))
		runs := 0
		for i, x := range raw {
			if i == 0 || x&1 != 0 {
				runs++
			}
		}
		if seed%3 == 0 {
			runs = n + 1
		}
		decodeAll := func(filler uint64, s *nodeStream) (all, next []int32, done bool, w []float64) {
			words := make([]uint64, 1+bitWords(bits)+1)
			for i := range words {
				words[i] = filler
			}
			for i := int64(0); i < bits; i++ {
				at := 64 + i
				words[at>>6] &^= 1 << (at & 63)
				if raw[i/8]>>(i%8)&1 != 0 {
					setBit(words, at)
				}
			}
			// The stream ends with the list's last word: a read past it
			// would panic.
			s.words = words[:bitWords(64+bits)]
			p := Nodes{nodeCodes: nodeCodes{s: s, bit: 64, end: 64 + bits, own: own}, n: n, steps: runs}
			var ends []int32
			all, ends, _ = p.AppendRuns(nil, nil)
			for j, end := range ends {
				if end < 0 || int(end) > n || j > 0 && end < ends[j-1] || j == len(ends)-1 && int(end) != n {
					t.Fatalf("the runs of %d entries end at %v", n, ends)
				}
			}
			c := p.cursor()
			for range n {
				next = append(next, c.Next())
				if a := c.adapt.a; a > 16*uint64(c.bound)+1 || c.adapt.param() > uint(bitsLen(16*c.bound+1)) {
					t.Fatalf("the adaptive parameter's sum %d (b %d) outgrows its run's bound %d", a, c.adapt.param(), c.bound)
				}
			}
			if s.order != nil {
				w = make([]float64, n)
				rankedWeights(&p, w, nil)
			}
			return all, next, c.Done(), w
		}
		for _, s := range []nodeStream{{total: total}, {total: small, order: order, k: k}} {
			all, next, done, w := decodeAll(0, &s)
			if !slices.Equal(all, next) {
				t.Fatalf("the decoders disagree: %v, %v", all, next)
			}
			for _, id := range all {
				if s.order != nil && (id < 0 || int(id) >= small) {
					t.Fatalf("rank-ordered bits decode to node %d of %d", id, small)
				}
			}
			if all2, _, done2, w2 := decodeAll(^uint64(0), &s); !slices.Equal(all, all2) || done != done2 || !slices.Equal(w, w2) {
				t.Fatal("the bits around the list change what it decodes to")
			}
		}
	})
}

// fuzzOrder returns the rank order of n nodes under a seed, its ranks
// rounded to base 2, so many tie, when the seed is odd.
func fuzzOrder(seed int64, n int) *rankOrder {
	o := Options{K: 1, Seed: uint64(seed)}
	if seed%2 != 0 {
		o.BaseB = 2
	}
	return newRankOrder(Params{Kind: KindUniform, Options: o}, n)
}

// bitsLen returns the bits x needs.
func bitsLen(x int) int { return bits.Len(uint(x)) }

// fuzzRankedList returns a bottom-k list under order — its owner, a node
// drawn at random, alone, then a run per length byte, each of positions
// below the run's bound not taken yet, as many as the byte says and there
// are, ascending by node — and whether each entry starts a run.
func fuzzRankedList(rng *rand.Rand, order *rankOrder, k int, lengths []byte) (ids []int32, steps []bool) {
	perm := order.nodes()
	taken := []int32{int32(rng.Intn(order.total))} // positions, ascending
	ids, steps = []int32{perm[taken[0]]}, []bool{true}
	for _, x := range lengths {
		bound := order.total
		if len(taken) >= k {
			bound = int(taken[k-1])
		}
		var free []int32
		for p := 0; p < bound; p++ {
			if _, ok := slices.BinarySearch(taken, int32(p)); !ok {
				free = append(free, int32(p))
			}
		}
		rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
		run := free[:min(len(free), int(x)+1)]
		if len(run) == 0 {
			break
		}
		nodes := make([]int32, len(run))
		for j, p := range run {
			nodes[j] = perm[p]
			taken = append(taken, p)
		}
		slices.Sort(taken)
		slices.Sort(nodes)
		for j, id := range nodes {
			ids, steps = append(ids, id), append(steps, j == 0)
		}
	}
	return ids, steps
}
