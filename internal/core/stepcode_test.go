package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"adsketch/internal/graph"
)

// canonicalV3 is the reference encoder: the version-3 bytes of the entry
// lists (node-major segments, with β lists for a weighted set) under
// header h, written value by value and bit by bit with none of the
// writer's block copies, shifts, rank look-ups or use counts.  The width of
// a packed column is spelled out here rather than taken from widthBelow —
// the smallest w, at least 1, with every value below 2^w — and so is a
// run's Rice parameter (testNodeCodes) — and the dictionary is its own
// pass: collect the steps, sort, drop repeats, and use it iff that is
// strictly fewer bytes.  A list whose IDs are not the set's, or not in
// order, still has its codes.
func canonicalV3(h frameHdr, lists [][]Entry, betas [][]float64) []byte {
	le := binary.LittleEndian
	width := func(bound uint64) uint64 {
		w := uint64(1)
		for bound > 1<<w {
			w++
		}
		return w
	}
	pack := func(vals []uint64, w uint64) (out []byte) {
		words := make([]uint64, (uint64(len(vals))*w+63)/64)
		for i, v := range vals {
			for b := uint64(0); b < w; b++ {
				at := uint64(i)*w + b
				words[at/64] |= v >> b & 1 << (at % 64)
			}
		}
		for _, x := range words {
			out = le.AppendUint64(out, x)
		}
		return out
	}
	total := h.n
	if h.kind == kindPartition {
		total = uint64(h.total)
	}
	var pos []uint64
	if Kind(h.setKind()) == KindUniform {
		pos = testRankPositions(h.params(), total)
	}
	var beta []byte
	var offs, boffs, soffs, nodes, codes []uint64
	var steps []float64
	for s, l := range lists {
		offs = append(offs, uint64(len(nodes)))
		boffs = append(boffs, uint64(len(codes)))
		soffs = append(soffs, uint64(len(steps)))
		for i, e := range l {
			nodes = append(nodes, uint64(uint32(e.Node)))
			if i == 0 || e.Dist != l[i-1].Dist {
				steps = append(steps, e.Dist)
			}
			if betas != nil {
				beta = le.AppendUint64(beta, math.Float64bits(betas[s][i]))
			}
		}
		code, _ := testNodeCodes(l, total, pos, int(h.k))
		codes = append(codes, code...)
	}
	offs = append(offs, uint64(len(nodes)))
	boffs = append(boffs, uint64(len(codes)))
	soffs = append(soffs, uint64(len(steps)))
	dict := append([]float64(nil), steps...)
	sort.Float64s(dict)
	dict = dedupe(dict)
	h.numEntries, h.numSteps, h.numDistinct = uint64(len(nodes)), uint64(len(steps)), 0
	h.numNodeBits = uint64(len(codes))
	var stepBytes []byte
	if codeWords := (uint64(len(steps))*width(uint64(len(dict))) + 63) / 64; 8*uint64(len(dict))+8*codeWords < 8*uint64(len(steps)) {
		h.numDistinct = uint64(len(dict))
		codes := make([]uint64, len(steps))
		for j, d := range steps {
			for dict[codes[j]] != d {
				codes[j]++
			}
		}
		stepBytes = pack(codes, width(uint64(len(dict))))
		steps = dict
	}
	for _, d := range steps {
		stepBytes = le.AppendUint64(stepBytes, math.Float64bits(d))
	}
	h.flags |= frameFlagStepDists | frameFlagPackedNodes | frameFlagCompact | frameFlagRiceNodes | frameFlagRunLengths
	if pos != nil {
		h.flags |= frameFlagsRanked
	}
	out := append(h.appendHeader(nil), pack(offs, width(uint64(len(nodes))+1))...)
	out = append(out, pack(boffs, width(uint64(len(codes))+1))...)
	out = append(out, pack(soffs, width(h.numSteps+1))...)
	out = append(out, pack(codes, 1)...)
	out = append(out, stepBytes...)
	return append(out, beta...)
}

// testRankPositions returns the position of every node of a total-node
// uniform set of p in its rank order, worked out afresh: the nodes sorted
// by rank, then ID.
func testRankPositions(p Params, total uint64) []uint64 {
	by := newRanker(p)
	nodes := make([]int32, total)
	for v := range nodes {
		nodes[v] = int32(v)
	}
	sort.Slice(nodes, func(i, j int) bool {
		ri, rj := by.rank(nodes[i], 0), by.rank(nodes[j], 0)
		return ri < rj || ri == rj && nodes[i] < nodes[j]
	})
	pos := make([]uint64, total)
	for p, v := range nodes {
		pos[v] = uint64(p)
	}
	return pos
}

// testNodeCodes returns the node codes of l in a set of total nodes, a bit
// each, and how many of them code run lengths, run by run, spelled out: a run's length, then the numbers of a run
// of m — IDs, or, with pos, the IDs' positions (an ID outside the set as
// itself) in ascending order — below a bound M, total or, with pos and k
// earlier entries, the k-th smallest of their positions, as gaps, each the
// quotient by 2^b in unary, a stop bit and b bits.  The length m−1 of
// every run but the first and the last of a list of n entries in R runs is
// coded so, at the largest b with n'·2^b <= a', or 0, up to 15, a' the sum of the
// list's earlier coded lengths and ⌊(n−1)/(R−1)⌋, n' their count and 1,
// both halved as n' reaches 16.  With pos, entry 0 — the owner — has no
// code, and a gap's b is the least with n·2^b >= a, a the sum of the
// run's earlier gaps and ⌊M/(4m)⌋+1, n their count and 1, both halved as
// n reaches 16, but no less than b₀−3; without, b is b₀, the largest with
// m·2^b <= M.
func testNodeCodes(l []Entry, total uint64, pos []uint64, k int) (codes []uint64, lengthBits int) {
	var earlier []uint64
	rice := func(x, b uint64) {
		for q := x >> b; q > 0; q-- {
			codes = append(codes, 0)
		}
		codes = append(codes, 1)
		for k := uint64(0); k < b; k++ {
			codes = append(codes, x>>k&1)
		}
	}
	runs := countSteps(l)
	la, ln := uint64(max(len(l)-1, 0)/max(runs-1, 1)), uint64(1)
	j := 0 // the run
	number := func(e Entry) uint64 {
		x := uint64(uint32(e.Node))
		if pos != nil && x < total {
			x = pos[x]
		}
		return x
	}
	i := 0
	if pos != nil && len(l) > 0 && (len(l) == 1 || l[1].Dist != l[0].Dist) {
		earlier, i, j = append(earlier, number(l[0])), 1, 1
	}
	for ; i < len(l); j++ {
		m := 1
		for i+m < len(l) && l[i+m].Dist == l[i].Dist {
			m++
		}
		if j > 0 && j < runs-1 {
			b := uint64(0)
			for ln<<(b+1) <= la && b < 15 {
				b++
			}
			at := len(codes)
			rice(uint64(m-1), b)
			lengthBits += len(codes) - at
			if la, ln = la+uint64(m-1), ln+1; ln == 16 {
				la, ln = la/2, ln/2
			}
		}
		bound, run := total, make([]uint64, m)
		for t, e := range l[i : i+m] {
			run[t] = number(e)
		}
		if pos != nil {
			sort.Slice(run, func(a, b int) bool { return run[a] < run[b] })
			if len(earlier) >= k {
				sorted := append([]uint64(nil), earlier...)
				sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
				bound = sorted[k-1]
			}
			earlier = append(earlier, run...)
		}
		b := uint64(0)
		for uint64(m)<<(b+1) <= bound {
			b++
		}
		a, n, floor := bound/(4*uint64(m))+1, uint64(1), b-min(b, 3)
		prev := int64(-1)
		for _, x := range run {
			gap := uint64(int64(x) - prev - 1)
			if pos != nil {
				for b = floor; n<<b < a; b++ {
				}
				a, n = a+min(gap, bound), n+1
				if n == 16 {
					a, n = a/2, n/2
				}
			}
			rice(gap, b)
			prev = int64(x)
		}
		i += m
	}
	return codes, lengthBits
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
// frame) of every node of the frame's own node range.
func segmentLists(f *Frame) (lists [][]Entry, betas [][]float64) {
	for v := 0; v < f.n; v++ {
		c := f.colsAt(v)
		lists = append(lists, c.entries())
		if f.beta != nil {
			betas = append(betas, append([]float64(nil), c.beta...))
		}
	}
	return lists, betas
}

// stepKinds is frameKinds three times over: on an unweighted graph, where a
// hundred entries share a handful of distances and a whole frame's steps
// go through a dictionary of them; with random edge lengths, where every
// distance of a sketch is its own step, but the sketch of its other end
// has it too, so that a dictionary of half as many values as steps still
// wins; and with random lengths on a directed graph, where no two steps of
// the frame agree and they stay raw.
func stepKinds(t *testing.T) map[string]*Set {
	out := frameKinds(t)
	for prefix, c := range map[string]struct {
		g      *graph.Graph
		approx string // the fixture of the same graph
	}{
		"lengths-":  {graph.WithRandomWeights(graph.PreferentialAttachment(120, 3, 9), 0.25, 4, 11), "pa120_lengths_k8"},
		"directed-": {graph.WithRandomWeights(graph.GNP(120, 0.05, true, 9), 0.25, 4, 11), "gnp120_directed_k8"},
	} {
		g := c.g
		set, err := BuildSet(g, Options{K: 8, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		out[prefix+"bottomk"] = set
		beta := make([]float64, g.NumNodes())
		for i := range beta {
			beta[i] = 1 + float64(i%7)
		}
		weighted, err := BuildWeightedSetParallel(g, 8, 42, beta, ExponentialWeights, 0)
		if err != nil {
			t.Fatal(err)
		}
		out[prefix+"weighted"] = weighted
		out[prefix+"approx"] = approxFixture(t, c.approx)
	}
	return out
}

// TestStepCodeCanonicalBytes: whatever path assembles a frame — a build's
// freezeFrame, split then merge, a sliced partition written and read back
// — its file is the canonical encoding of its entry lists, so equal
// entries are equal bytes wherever they were put together.
func TestStepCodeCanonicalBytes(t *testing.T) {
	sets := stepKinds(t)
	// A path and as many isolated nodes after it: the second half of a
	// two-way split has distance 0 alone, so the dictionary its file
	// carries is a strict subset of the one its slice shares in memory.
	sets["path and isolated nodes"] = pathSetPlus(t, 8, 8, Options{K: 8, Seed: 42})
	for name, set := range sets {
		f := set.frame
		lists, betas := segmentLists(f)
		want := canonicalV3(headerOf(set), lists, betas)
		if got := v3Bytes(t, set); !bytes.Equal(got, want) {
			t.Fatalf("%s: the built frame is not the canonical encoding of its entries (%d vs %d bytes)", name, len(got), len(want))
		}
		for _, p := range []int{2, 3, 7} {
			parts, err := SplitSketchSet(set, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, part := range parts {
				pf := part.frame
				plists, pbetas := segmentLists(pf)
				wantPart := canonicalV3(headerOf(part), plists, pbetas)
				got := v3Bytes(t, part)
				if !bytes.Equal(got, wantPart) {
					t.Fatalf("%s: partition %d/%d is not the canonical encoding of its entries", name, part.index, p)
				}
				if name == "path and isolated nodes" && p == 2 {
					if whole, own := len(pf.steps.dict), splitV3(t, got).h.numDistinct; whole != 8 || own != []uint64{8, 1}[part.index] {
						t.Fatalf("%s: partition %d/2 shares a dictionary of %d distances and writes one of %d", name, part.index, whole, own)
					}
				}
				back, err := ReadSketchSet(bytes.NewReader(got))
				if err != nil {
					t.Fatalf("%s: partition %d/%d: %v", name, part.index, p, err)
				}
				if !bytes.Equal(v3Bytes(t, back), wantPart) {
					t.Fatalf("%s: partition %d/%d changes bytes through ReadSketchSet", name, part.index, p)
				}
			}
			// Merged in reverse, from partitions that went through a file.
			for i, part := range parts {
				back, err := ReadSketchSet(bytes.NewReader(v3Bytes(t, part)))
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
// writes the canonical encoding of the lists it was given: over hop
// distances, where a window seldom moves the dictionary and the codes are
// bit-copied; over random lengths, where every window retires values and
// brings new ones, so every kept code is looked up again; and over random
// lengths on a directed graph, where the steps are raw and stay raw on the
// strength of a bound — or, over a base that came from a file and has
// none, of a recount.
func TestFreezeOverCanonicalBytes(t *testing.T) {
	for _, name := range []string{"hops", "lengths", "directed"} {
		g0 := graph.PreferentialAttachment(90, 3, 9)
		g1 := graph.PreferentialAttachment(90, 4, 5) // other sketches for the same nodes, same ranks
		switch name {
		case "lengths":
			g0, g1 = graph.WithRandomWeights(g0, 0.25, 4, 11), graph.WithRandomWeights(g1, 0.25, 4, 12)
		case "directed":
			g0 = graph.WithRandomWeights(graph.GNP(90, 0.06, true, 9), 0.25, 4, 11)
			g1 = graph.WithRandomWeights(graph.GNP(90, 0.08, true, 5), 0.25, 4, 12)
		}
		o := Options{K: 8, Seed: 42}
		base, err := BuildSet(g0, o)
		if err != nil {
			t.Fatal(err)
		}
		other, err := BuildSet(g1, o)
		if err != nil {
			t.Fatal(err)
		}
		if raw := base.frame.steps.dict == nil; raw != (name == "directed") || raw && base.frame.steps.dlo == 0 {
			t.Fatalf("%s: the base's steps go through %d values (raw with a bound of %d)", name, len(base.frame.steps.dict), base.frame.steps.dlo)
		}
		// The same base through a file: no use counts, no bound.
		loaded, err := ReadSketchSet(bytes.NewReader(v3Bytes(t, base)))
		if err != nil {
			t.Fatal(err)
		}
		if c := &loaded.frame.steps; c.uses != nil || c.dlo != 0 {
			t.Fatalf("%s: a frame from a file has use counts or a bound", name)
		}
		baseLists, _ := segmentLists(base.frame)
		otherLists, _ := segmentLists(other.frame)
		rng := rand.New(rand.NewSource(7))
		moved := 0
		for trial := 0; trial < 40; trial++ {
			n := 90 + rng.Intn(3)
			lists := append([][]Entry(nil), baseLists...)
			changed := map[int32][]Entry{}
			for v := 90; v < n; v++ {
				l := []Entry{{Node: int32(v), Dist: 0, Rank: o.rankFn()(int32(v))}}
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
			from := base
			if trial%4 == 3 {
				from = loaded
			}
			got, err := FreezeBottomKOver(from, n, changed)
			if err != nil {
				t.Fatalf("%s trial %d: %v", name, trial, err)
			}
			h := headerOf(base)
			h.n = uint64(n)
			if !bytes.Equal(v3Bytes(t, got), canonicalV3(h, lists, nil)) {
				t.Fatalf("%s trial %d: freezing %d changed nodes over the base is not the canonical encoding", name, trial, len(changed))
			}
			if !slices.Equal(got.frame.steps.dict, base.frame.steps.dict) {
				moved++
			}
			// And it is a base like any other.
			if trial%8 == 0 {
				again, err := FreezeBottomKOver(got, n, map[int32][]Entry{5: lists[5]})
				if err != nil || !bytes.Equal(v3Bytes(t, again), v3Bytes(t, got)) {
					t.Fatalf("%s trial %d: refreezing over the result: %v", name, trial, err)
				}
			}
		}
		if (name == "lengths") != (moved > 30) || name == "directed" && moved != 0 {
			t.Errorf("%s: %d of 40 windows moved the dictionary", name, moved)
		}
	}
	// The windows a dictionary makes new, on paths whose sketches (k past
	// the node count) hold every node: an n-node path has n distances and n²
	// entries, so growing it by its next node adds a farther distance,
	// cutting its last node off retires the largest, and the counts cross
	// what the code and offset widths turn on — 2→3 and 4→5 distances, 32
	// and 64 entries.
	o := Options{K: 16, Seed: 42}
	for n := 2; n <= 10; n++ {
		for name, sets := range map[string][2]*Set{
			"grown by its next node": {pathSetPlus(t, n-1, 1, o), pathSet(t, n, o)},
			"its last node cut off":  {pathSet(t, n, o), pathSetPlus(t, n-1, 1, o)},
		} {
			base, fresh := sets[0], sets[1]
			lists, _ := segmentLists(fresh.frame)
			changed := map[int32][]Entry{}
			for v := 0; v < n; v++ {
				if c := base.frame.colsAt(v); !slices.Equal(c.entries(), lists[v]) {
					changed[int32(v)] = lists[v]
				}
			}
			got, err := FreezeBottomKOver(base, n, changed)
			if err != nil {
				t.Fatalf("a path of %d, %s: %v", n, name, err)
			}
			if !bytes.Equal(v3Bytes(t, got), canonicalV3(headerOf(fresh), lists, nil)) || !bytes.Equal(v3Bytes(t, got), v3Bytes(t, fresh)) {
				t.Fatalf("a path of %d, %s (%d → %d distances, %d → %d entries), is not the canonical encoding", n, name,
					base.frame.steps.n, fresh.frame.steps.n, base.frame.totalEntries(), fresh.frame.totalEntries())
			}
		}
		if f := pathSet(t, n, o).frame; f.totalEntries() != n*n || len(distinctSteps(f.steps.appendRaw(nil, 0, f.steps.n))) != n {
			t.Fatalf("a path of %d has %d entries", n, f.totalEntries())
		}
	}
}

// TestStepCodeWorstCaseSize: whatever the distances, a file is what
// referenceSizes works out from the entries, and never more than the same
// entries took with 64 bits an offset and a float a step, bar the header
// word that counts the dictionary — nor than with 32 bits an ID.  When no
// two steps of a whole set share a distance (random lengths on a directed
// graph: an undirected one has every distance from both ends) the steps
// stay raw and the step code pays its bit per entry and nothing else —
// under 2% of the per-entry layout for bottom-k, under 5% for the short
// segments of k-partition and k-mins.  Hop distances, the usual case, go through a
// dictionary of a handful of values: at least 12% under the layout before
// it for bottom-k, under half the per-entry one.
func TestStepCodeWorstCaseSize(t *testing.T) {
	sets := stepKinds(t)
	for name, set := range sets {
		f := set.frame
		data := v3Bytes(t, set)
		if f.total != 120 {
			t.Fatalf("%s: %d nodes, want 120", name, f.total)
		}
		want, plain, steps, coded := referenceSizes(f, false)
		if int64(len(data)) != want {
			t.Errorf("%s: %d bytes, want %d (e=%d steps=%d distinct=%d)", name, len(data), want, f.totalEntries(), steps, coded)
		}
		if before := int64(len(plainV3(t, data))); before != plain || int64(len(data)) > before+8 {
			t.Errorf("%s: %d bytes compact, %d (want %d) with 64 bits an offset and a float a step", name, len(data), before, plain)
		}
		if wide := len(wideV3(t, data)); len(data) > wide {
			t.Errorf("%s: %d bytes packed, %d with 32 bits an ID", name, len(data), wide)
		}
		// Which form the steps take is the values' to decide: raw for the
		// single-segment directed sets, where every step is its own value
		// (k-mins meets the same pair of nodes under several permutations),
		// coded wherever distances are hops.
		switch {
		case name == "directed-bottomk" || name == "directed-weighted" || name == "directed-approx":
			if coded != 0 || steps != int64(f.totalEntries()) {
				t.Errorf("%s: %d steps of %d entries coded through %d values, want all distinct and raw", name, steps, f.totalEntries(), coded)
			}
		case !strings.Contains(name, "-") && coded == 0:
			t.Errorf("%s: %d hop-distance steps left raw", name, steps)
		}
	}
	for name, limit := range map[string]float64{"directed-bottomk": 1.02, "directed-weighted": 1.02, "lengths-bottomk": 1.05, "baseb": 1.05} {
		data := v3Bytes(t, sets[name])
		before := len(perEntryV3(t, data))
		if float64(len(data)) > limit*float64(before) {
			t.Errorf("%s: %d bytes step-coded, %d with a distance per entry: more than %.0f%% larger", name, len(data), before, 100*(limit-1))
		}
	}
	data := v3Bytes(t, sets["bottomk"])
	if before := len(plainV3(t, data)); float64(len(data)) > 0.88*float64(before) {
		t.Errorf("bottomk on an unweighted graph: %d bytes compact, %d before: want at least 12%% smaller", len(data), before)
	}
	if before := len(perEntryV3(t, data)); 2*len(data) > before {
		t.Errorf("bottomk on an unweighted graph: %d bytes step-coded, %d per entry: want under half", len(data), before)
	}
}

// v3Fixture is a committed version-3 file in a layout an earlier release
// wrote, recorded with that release's `adstool build -save` / `split`;
// nothing in this tree writes it, and internal/legacy, which reads it,
// keeps it.
type v3Fixture struct {
	file string
	part int // the index the file holds of a 2-way split of its build, or -1
	// build builds what the file holds: nil for a k-mins file, which
	// nothing builds any more.
	build func(g *graph.Graph, beta []float64) (*Set, error)
}

// v3Fixtures names the four committed files of one earlier layout, tag
// being what their names carry for it.  All are `gen -type ba -n 60 -m 3
// -seed 9` built with `-k 4 -seed 42` and, where weighted, weights 1+i%7.
func v3Fixtures(tag string) []v3Fixture {
	uniform := func(g *graph.Graph, _ []float64) (*Set, error) {
		return BuildSet(g, Options{K: 4, Seed: 42})
	}
	return []v3Fixture{
		{"uniform_" + tag + "_k4.ads", -1, uniform},
		{"uniform_" + tag + "_k4.p1of2.ads", 1, uniform},
		{"weighted_" + tag + "_k4.ads", -1, func(g *graph.Graph, beta []float64) (*Set, error) {
			return BuildWeightedSetParallel(g, 4, 42, beta, ExponentialWeights, 0)
		}},
		{"kmins_base2_" + tag + "_k4.ads", -1, nil},
	}
}

// TestV3PerEntryDistFixtures: the files of the last release before step
// coding — a distance per entry, 32 bits a node ID, flags bits 2 and 3
// clear — are refused.
func TestV3PerEntryDistFixtures(t *testing.T) {
	checkV3Fixtures(t, v3Fixtures("v3dist"), frameFlagDerivedRanks, perEntryV3, -1)
}

// TestV3WideNodeFixtures: the files of the last release before node IDs
// were packed — step-coded, 32 bits a node ID, flags bit 3 clear — are
// refused.
func TestV3WideNodeFixtures(t *testing.T) {
	checkV3Fixtures(t, v3Fixtures("v3step"), frameFlagDerivedRanks|frameFlagStepDists, wideV3, -1)
}

// TestV3WideColumnFixtures: the files of the last release before the
// compact columns — step-coded, packed IDs, 64 bits an offset and a float
// a step, flags bit 4 clear — are refused.
func TestV3WideColumnFixtures(t *testing.T) {
	checkV3Fixtures(t, v3Fixtures("v3pack"), frameFlagDerivedRanks|frameFlagStepDists|frameFlagPackedNodes, plainV3, -1)
}

// TestV3CompactFixtures: the files of the last release before node IDs
// were Rice-coded — compact columns, fixed-width IDs, flags 0x1e — are
// refused.  (Its k-mins file is the repository's testdata/kmins_v3_k4.ads,
// which every reader refuses naming its flavor.)  At 60 nodes and k=4 the
// codes save about what the bit offsets cost: the 30-node partition is
// 600 bytes in both layouts.
func TestV3CompactFixtures(t *testing.T) {
	checkV3Fixtures(t, v3Fixtures("v3compact")[:3], frameFlagDerivedRanks|frameFlagStepDists|frameFlagPackedNodes|frameFlagCompact, compactV3, 0)
}

// TestV3RankFixtures: the files of the last release before the Rice
// parameters of a uniform set's rank-ordered runs adapted gap by gap and
// the owner's code was implied — one parameter a run, flags 0x7e — are
// refused, whole and as a partition.
func TestV3RankFixtures(t *testing.T) {
	checkV3Fixtures(t, v3Fixtures("v3rank")[:2], frameFlagsLayout&^frameFlagRunLengths|frameFlagRankNodes, rankedV3, -1)
}

// TestV3AdaptFixtures: the files of the last release before run lengths
// in the node stream and step offsets replaced the step bits — a uniform
// set's adapted rank-ordered codes, flags 0xfe, whole and as a partition,
// and a weighted set's IDs' own codes, flags 0x3e — are refused.  At 60
// nodes and k=4 a sketch has 13 entries in 4 runs, so the step offsets and
// run lengths cost about what the step bits did: the whole files are a
// word larger now (TestFileBytesNoLargerPerFamily has the sizes at scale).
func TestV3AdaptFixtures(t *testing.T) {
	checkV3Fixtures(t, v3Fixtures("v3adapt")[:2], frameFlagsLayout&^frameFlagRunLengths|frameFlagsRanked, adaptiveV3, 8)
	checkV3Fixtures(t, v3Fixtures("v3rice")[2:3], frameFlagsLayout&^frameFlagRunLengths, riceV3, 8)
}

// checkV3Fixtures: every committed file of an earlier layout (its flags,
// less the β bit, being layout) is larger than a fresh build's file, less
// slack — -1 asks for strictly larger, 0 for no smaller — and is refused
// by every reader, naming
// adsconvert (internal/legacy's tests of these names read them) — or,
// holding k-mins sketches, naming those, as no reader serves them in any
// layout.  The fixtures also pin rewrite, the
// test-only writer of that layout, to what the release really wrote, where
// this tree still builds what the file holds.
func checkV3Fixtures(t *testing.T, fixtures []v3Fixture, layout uint32, rewrite func(testing.TB, []byte) []byte, slack int) {
	g := graph.PreferentialAttachment(60, 3, 9)
	beta := make([]float64, g.NumNodes())
	for i := range beta {
		beta[i] = 1 + float64(i%7)
	}
	for _, fx := range fixtures {
		path := legacyFixture(fx.file)
		data := readLegacyFixture(t, fx.file)
		if flags := binary.LittleEndian.Uint32(data[12:]); flags&^frameFlagBeta != layout {
			t.Fatalf("%s: flags %#x: not a file of the layout with flags %#x", fx.file, flags, layout)
		}
		if fx.build != nil {
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
				want = v3Bytes(t, parts[fx.part])
			}
			if !bytes.Equal(rewrite(t, want), data) {
				t.Errorf("%s: the test's writer of that layout does not turn a fresh build into the committed file", fx.file)
			}
			if len(want) > len(data)+slack {
				t.Errorf("%s: %d bytes as written now, %d as committed", fx.file, len(want), len(data))
			}
		}
		want := "adsconvert"
		if fx.build == nil {
			want = "k-mins sketches"
		}
		if _, err := openFrameBytes(data); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: parser: %v, want a refusal naming %s", fx.file, err, want)
		}
		checkRefusedNaming(t, path, want)
	}
}

// hostileStepFiles returns a valid whole-set bottom-k file and damaged
// copies of it, one per way its steps and step offsets can lie.  trusted
// marks the damage the file openers must catch too (it would index the
// step column out of range); the rest leaves well-formed columns over
// invalid or non-canonical distances, or steps the sketches' runs do not
// fill, which is the validating stream readers' to refuse.  The file's
// steps go through a dictionary; hostileCompactFiles has the ways that can
// lie, and the same damage to raw steps.
func hostileStepFiles(t testing.TB) (valid []byte, damaged map[string][]byte, trusted map[string]bool) {
	t.Helper()
	set, err := BuildSet(graph.PreferentialAttachment(61, 3, 9), Options{K: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	valid = v3Bytes(t, set)
	le := binary.LittleEndian
	whole := splitV3(t, valid)
	e, steps, last := int64(whole.h.numEntries), whole.h.numSteps, len(whole.soffs)-1
	if int64(len(whole.soffs))*int64(testWidth(steps+1))%64 == 0 || whole.soffs[1] < 3 || whole.h.numDistinct == 0 {
		t.Fatalf("the seed set has %d step offsets, %d steps in node 0, %d dictionary values: pick one with padding bits, a longer first sketch and a dictionary", len(whole.soffs), whole.soffs[1], whole.h.numDistinct)
	}
	// Node 0's sketch: owner at 0, then neighbours at 1, then at 2.
	if f := set.frame; f.colsAt(0).sd.step(1) != 1 || whole.dists[whole.codes[0]] != 0 {
		t.Fatal("the seed set's first sketch does not have the assumed shape")
	}
	stepsAt := int64(framePreambleSize + frameHdrSize - 8)
	damaged, trusted = map[string][]byte{}, map[string]bool{}
	add := func(name string, open bool, fn func(b []byte)) {
		b := append([]byte(nil), valid...)
		fn(b)
		damaged[name], trusted[name] = b, open
	}
	rebuilt := func(name string, open bool, fn func(p *v3Parts)) {
		p := splitV3(t, valid)
		fn(&p)
		damaged[name], trusted[name] = p.bytes(), open
	}
	add("a step offset bit past the last", true, func(b []byte) { b[whole.nodesAt-1] |= 0x80 })
	add("step count past the entries", true, func(b []byte) { le.PutUint64(b[stepsAt:], uint64(e)+1) })
	add("step count overflowing the body", true, func(b []byte) { le.PutUint64(b[stepsAt:], 1<<61) })
	add("step count one short", true, func(b []byte) { le.PutUint64(b[stepsAt:], steps-1) })
	add("step count with the flag clear", true, func(b []byte) {
		le.PutUint32(b[12:], le.Uint32(b[12:])&^frameFlagStepDists)
	})
	add("step offsets without the run-length flag", true, func(b []byte) {
		le.PutUint32(b[12:], le.Uint32(b[12:])&^frameFlagRunLengths)
	})
	// The step offsets place every sketch's steps in the column.
	rebuilt("step offsets that decrease", true, func(p *v3Parts) { p.soffs[2], p.soffs[3] = p.soffs[3], p.soffs[2] })
	rebuilt("a sketch with no steps", true, func(p *v3Parts) { p.soffs[2] = p.soffs[1] })
	rebuilt("step offsets that start past 0", true, func(p *v3Parts) { p.soffs[0] = 1 })
	rebuilt("step offsets that end short of the steps", true, func(p *v3Parts) { p.soffs[last]-- })
	rebuilt("step offsets that end past the steps", true, func(p *v3Parts) { p.soffs[last]++ })
	// Within the column the steps are trusted: the stream readers decode
	// every sketch's runs, and refuse a sketch whose steps its entries
	// cannot fill, or its runs do not.
	rebuilt("a step moved to the next sketch", false, func(p *v3Parts) { p.soffs[1]-- })
	rebuilt("a step moved from the next sketch", false, func(p *v3Parts) { p.soffs[1]++ })
	// Sketch 0's entries but one of its steps' worth moved to sketch 1.
	rebuilt("a sketch with more steps than entries", false, func(p *v3Parts) { p.offs[1] = p.soffs[1] - 1 })
	rebuilt("equal steps", false, func(p *v3Parts) { p.codes[2] = p.codes[1] })
	rebuilt("a second entry at distance 0", false, func(p *v3Parts) { p.codes[1] = p.codes[0] })
	rebuilt("decreasing steps", false, func(p *v3Parts) { p.codes[1], p.codes[2] = p.codes[2], p.codes[1] })
	return valid, damaged, trusted
}

// TestStepCodeRejectsHostileInput: every way the new columns can lie is
// an error — through the parser wherever it would misindex a column, and
// through the validating stream readers always — and costs no allocation
// beyond the bytes that arrived.
func TestStepCodeRejectsHostileInput(t *testing.T) {
	valid, damaged, trusted := hostileStepFiles(t)
	if _, err := openFrameBytes(valid); err != nil {
		t.Fatal(err)
	}
	checkHostileFiles(t, damaged, trusted)
	// What only the stream readers refuse, they refuse naming the sketch.
	for name, data := range damaged {
		if _, err := ReadSketchSet(bytes.NewReader(data)); !trusted[name] && (err == nil || !strings.Contains(err.Error(), "ADS(")) {
			t.Errorf("%s: stream reader: %v, want the sketch named", name, err)
		}
	}
}

// checkHostileFiles: the parser refuses every damaged file marked trusted,
// the stream reader refuses them all — as corrupt, when only it does —
// and the file openers refuse the trusted ones without allocating beyond
// the bytes that arrived.
func checkHostileFiles(t *testing.T, damaged map[string][]byte, trusted map[string]bool) {
	t.Helper()
	dir := t.TempDir()
	for name, data := range damaged {
		set, err := openFrameBytes(data)
		if trusted[name] && err == nil {
			t.Errorf("%s: accepted by the parser", name)
		}
		if err == nil {
			// What the parser trusts, every decoder reads without a panic.
			for v := 0; v < set.NumNodes(); v++ {
				indexEntries(set.Index(int32(v)))
				set.frame.nodesAt(v).AppendRuns(nil, nil)
			}
		}
		if _, serr := ReadSketchSet(bytes.NewReader(data)); serr == nil {
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
	set, err := BuildSet(graph.PreferentialAttachment(4000, 5, 1), Options{K: 16, Seed: 42})
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
		_, err = ReadSketchSet(f)
		return err
	})
	fromStream := allocated(func() error {
		_, err := ReadSketchSet(bytes.NewReader(data))
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

// TestFrameIndexMatchesStandalone: the index Frame.Index builds for every
// node — a view of the frame's own node, bit and step columns for
// single-segment kinds, a standalone index of the segments' merge for
// k-mins and k-partition — reads out bit for bit like the standalone index
// of the same sketch, entry by entry and step by step, from a whole frame
// and from a partition's slice of it, while other goroutines build the
// same nodes' indexes.  Each index counts, as its own, its weights, its
// sums and its header, and a standalone one its nodes and step code too.
func TestFrameIndexMatchesStandalone(t *testing.T) {
	g := func(node int32, dist float64) float64 { return float64(node%5) + 1/(1+dist) }
	header := int64(unsafe.Sizeof(HIPIndex{}))
	for name, set := range stepKinds(t) {
		parts, err := SplitSketchSet(set, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Set{set, parts[1]} {
			f := s.frame
			if e := int64(f.totalEntries()); MemoryOf(s) < 8*bitWords(f.nodeBits())+e/8 {
				t.Errorf("%s: frame %d B for %d entries", name, MemoryOf(s), e)
			}
			check := func(v int) string {
				got, want := f.Index(int32(v)), NewHIPIndex(f.viewSketch(v))
				ge, we := indexEntries(got), indexEntries(want)
				if len(ge) != len(we) || got.Len() != want.Len() {
					return fmt.Sprintf("%d entries, standalone %d", len(ge), len(we))
				}
				for i := range we {
					if ge[i] != we[i] {
						return fmt.Sprintf("entry %d: %+v, standalone %+v", i, ge[i], we[i])
					}
				}
				gd, wd := indexSteps(got), indexSteps(want)
				if len(gd) != len(wd) || len(got.cum) != len(wd) {
					return fmt.Sprintf("%d steps (%d sums), standalone %d", len(gd), len(got.cum), len(wd))
				}
				for j, d := range wd {
					if gd[j] != d || got.Neighborhood(d) != want.Neighborhood(d) {
						return fmt.Sprintf("step %d (distance %g) reads out differently", j, d)
					}
				}
				if got.Neighborhood(math.Inf(1)) != want.Neighborhood(math.Inf(1)) || got.Closeness() != want.Closeness() || got.Harmonic() != want.Harmonic() ||
					got.EstimateQ(g) != want.EstimateQ(g) || got.EstimateQ(g) != EstimateQ(f.viewSketch(v), g) {
					return "totals differ from the standalone index's"
				}
				sums := header + 8*int64(got.Len()+len(wd))
				code := int64(unsafe.Sizeof(nodeStream{})) + 4*int64(got.Len()+len(wd)) + 8*int64(len(wd))
				if want.Bytes() != sums+code || got.Bytes() != sums {
					return fmt.Sprintf("%d B of its own (standalone %d B): want %d B of sums, %d more of code standalone", got.Bytes(), want.Bytes(), sums, code)
				}
				return ""
			}
			var wg sync.WaitGroup
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for v := 0; v < f.n; v++ {
						if msg := check(v); msg != "" {
							t.Errorf("%s node %d: %s", name, f.owner(v), msg)
							return
						}
					}
				}()
			}
			wg.Wait()
		}
	}
}
