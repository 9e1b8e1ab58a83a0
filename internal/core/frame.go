package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"unsafe"

	"adsketch/internal/rank"
)

// Frozen columnar sketch storage.  A built sketch set never mutates, so
// instead of one heap object (and one entry slice) per node, every set
// owns a single Frame: a bit offset a node into one stream that holds
// every list, each in a bit range of its own.  The sketch types (ADS,
// WeightedADS) are lightweight views over the stream — constructing one
// allocates its decoded nodes, never a copy of the frame — and a node's
// HIP query index views it too, holding only its weights and sums
// (Index).  A million-node set is a handful of large allocations instead
// of millions of small ones, splitting a set into partitions is offset
// slicing, and the version-3 codec serializes the stream verbatim, so
// opening a prebuilt file is O(columns) work (and zero copies when
// mmapped).
//
// A list's range holds its entry and step counts, Rice-coded; its steps
// but the owner's, each a code of a few bits into the frame's dictionary
// of distances where they are few, a float where they are not
// (stepcode.go); per entry, a node ID Rice-coded within its run of equal
// distance — in a uniform set as its position in the set's rank order,
// below the run's bottom-k bound, at a parameter adapted gap by gap, and no
// code for the owner (nodepack.go: 6.2 bits at ten thousand nodes) — and
// per run a code of its length (but the owner's and the last of a list,
// which its counts imply); and, for weighted sets, a β an entry.  No
// integer is wider than the frame's own counts make it, and no rank is
// stored.  Distances are a staircase in canonical order, so they are
// stored as its steps, each as many entries long as its run.  A rank is a
// pure function of the seed and the node (and of β, which travels with
// the entry), so it is derived when asked for.

// ranker derives the rank of an entry from what its frame records: the
// seed, the base of a uniform set, the scheme of a weighted one.  It is the
// arithmetic the builders draw ranks with (Options.rankFn is built on it),
// so a derived rank is bit-equal to the one the entry was sampled under.
type ranker struct {
	src      rank.Source
	rounded  bool // base-b ranks
	base     rank.BaseB
	weighted bool
	scheme   WeightScheme
}

// newRanker returns the ranker of a set of a valid p, whose unused fields
// are zero.
func newRanker(p Params) ranker {
	r := ranker{src: p.Source(), weighted: p.Kind == KindWeighted, scheme: p.Scheme}
	if p.BaseB > 1 {
		r.rounded, r.base = true, rank.NewBaseB(p.BaseB)
	}
	return r
}

// rank returns the rank of node with node weight beta (weighted sets
// only).
func (r *ranker) rank(node int32, beta float64) float64 {
	if r.weighted {
		if r.scheme == PriorityWeights {
			return r.src.PriorityRank(int64(node), beta)
		}
		return r.src.ExpRank(int64(node), beta)
	}
	x := r.src.Rank(int64(node))
	if r.rounded {
		x = r.base.Round(x)
	}
	return x
}

// cols is one columnar entry list, in canonical (distance, node ID)
// order.  A cols either views a frame's stream (frozen sketches) or owns
// private slices (a sketch rebuilt from entries, colsFromEntries).  Its nodes are per entry,
// a frame's decoded from its codes, which decode in order only, with its
// runs' ends; its ranks and distances are per entry when rank and dist are
// non-nil — a rebuilt sketch's own columns, or the scratch rankScratch
// fills for whole-node loops — and otherwise derived through by and read
// off the frame's steps sd, run by run.
type cols struct {
	node []int32
	dist []float64
	sd   StepDists
	ends []int32 // the end of each run of equal distance, one per step of sd
	rank []float64
	beta []float64 // weighted sketches: β per entry
	by   *ranker
}

func (c *cols) len() int { return len(c.node) }

// distAt returns the distance of entry i.
func (c *cols) distAt(i int) float64 {
	if c.dist != nil {
		return c.dist[i]
	}
	j, _ := slices.BinarySearch(c.ends, int32(i+1)) // the first run to end past i
	return c.sd.step(j)
}

// dists returns the distance of every entry: the per-entry column, or a
// fresh slice expanded from the steps.
func (c *cols) dists() []float64 {
	if c.dist != nil || c.len() == 0 {
		return c.dist
	}
	out := make([]float64, c.len())
	c.sd.expand(out, c.ends)
	return out
}

// sizeWithin returns the number of entries at distance <= d.
func (c *cols) sizeWithin(d float64) int {
	return sort.Search(c.len(), func(i int) bool { return c.distAt(i) > d })
}

// rankAt returns the rank of entry i.
func (c *cols) rankAt(i int) float64 {
	if c.rank != nil {
		return c.rank[i]
	}
	var b float64
	if c.beta != nil {
		b = c.beta[i]
	}
	return c.by.rank(c.node[i], b)
}

// ranks returns the rank of every entry: the stored column, or a fresh
// slice of derived ones.
func (c *cols) ranks() []float64 {
	if c.rank != nil {
		return c.rank
	}
	out := make([]float64, c.len())
	for i := range out {
		out[i] = c.rankAt(i)
	}
	return out
}

// at returns entry i as a value.
func (c *cols) at(i int) Entry {
	return Entry{Node: c.node[i], Dist: c.distAt(i), Rank: c.rankAt(i)}
}

// entries materializes the columns as an entry slice.
func (c *cols) entries() []Entry {
	out := make([]Entry, c.len())
	dist, ranks := c.dists(), c.ranks()
	for i := range out {
		out[i] = Entry{Node: c.node[i], Dist: dist[i], Rank: ranks[i]}
	}
	return out
}

// weighted pairs the entries with the adjusted weights w.
func (c *cols) weighted(w []float64) []WeightedEntry {
	out := make([]WeightedEntry, c.len())
	dist := c.dists()
	for i := range out {
		out[i] = WeightedEntry{Node: c.node[i], Dist: dist[i], Weight: w[i]}
	}
	return out
}

func colsFromEntries(entries []Entry) cols {
	c := cols{
		node: make([]int32, len(entries)),
		dist: make([]float64, len(entries)),
		rank: make([]float64, len(entries)),
	}
	for i, e := range entries {
		c.node[i] = e.Node
		c.dist[i] = e.Dist
		c.rank[i] = e.Rank
	}
	return c
}

// Frame is the frozen columnar storage of one sketch set: one entry list
// per node, each a bit range of the node stream, which the bit offsets
// column places.  Offsets are absolute positions into the stream (local
// node v's list is bits [boff[v], boff[v+1])), so slicing a frame to a
// node range (partitioning) is a window on the offsets — off0 moves, no
// bit does.  A slice also shares its parent's stream, and so the counts,
// dictionary and all its lists were coded under; only a written partition
// codes its lists under its own (own).  base is the global ID of local
// node 0 (non-zero for partition frames) and total the node count of the
// whole set the frame is (a range of): what its entries' IDs are below,
// and so what fixes their codes' parameters.
type Frame struct {
	p              Params // what the set is; the ranker derives from it
	n              int
	base           int32
	total          int
	entries, steps int64        // what the frame's own lists hold
	boff           packedColumn // absolute positions in node of each list, offsetWidth(the column's last) bits each, packed
	off0           int64        // position in boff of local node 0's offset; n+1 of them are the frame's
	node           nodeStream   // every list: its counts, steps, IDs and run lengths, and β (nodepack.go)
	by             ranker       // derives the ranks
}

// newFrame returns the frame, its lists still to code, of the nodes lists
// of nodes base, base+1, ... of a total-node set of p, which hold entries
// entries whose distance steps, list by list, are raw, their node codes in
// the rank order order.
func newFrame(p Params, base int32, total, nodes int, entries int64, raw []float64, order *rankOrder) *Frame {
	f := &Frame{p: p, n: nodes, base: base, total: total, entries: entries, steps: int64(len(raw)), by: newRanker(p)}
	f.node = nodeStream{lc: newListCodec(int64(nodes), entries, f.steps, raw), total: total, order: order, k: p.K}
	return f
}

// freezeWhole is freezeFrame for a whole set: local node 0 is node 0, and
// the lists are all there are.
func freezeWhole(p Params, lists [][]Entry, beta []float64) (*Frame, error) {
	return freezeFrame(p, 0, len(lists), lists, beta)
}

// freezeFrame assembles the entry lists of nodes base... (node base+i's is
// lists[i]) of a total-node set of parameters p into one frame, beta being
// a weighted set's β an entry, list after list.  The entries' Rank fields
// are not kept; a list that has no code (nodeWriter) is refused, and
// callers that did not draw the entries from p and the set themselves
// check the rest against the frame's (validate).
func freezeFrame(p Params, base int32, total int, lists [][]Entry, beta []float64) (*Frame, error) {
	entries, steps := 0, 0
	for _, l := range lists {
		entries += len(l)
		for j := range l {
			if isStep(l, j) {
				steps++
			}
		}
	}
	raw := make([]float64, 0, steps)
	for _, l := range lists {
		for j := range l {
			if isStep(l, j) {
				raw = append(raw, l[j].Dist)
			}
		}
	}
	f := newFrame(p, base, total, len(lists), int64(entries), raw, newRankOrder(p, total))
	var at []int // a weighted set's: where each list's β start
	if beta != nil {
		at = make([]int, len(lists)+1)
		for i, l := range lists {
			at[i+1] = at[i] + len(l)
		}
	}
	var pos []int32
	if f.node.order != nil {
		pos = f.node.order.positions()
	}
	err := f.codeNodes(pos, f.codeBits(), 0, func(w *nodeWriter, i int) {
		var b []float64
		if at != nil {
			b = beta[at[i]:at[i+1]]
		}
		w.entryList(f.owner(i), lists[i], b)
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// isStep reports whether entry j of l starts a distance step.
func isStep(l []Entry, j int) bool { return j == 0 || l[j].Dist != l[j-1].Dist }

// entryList codes the list l of node owner whole — its counts, steps and
// IDs — and, when beta is non-nil, its entries' β.
func (w *nodeWriter) entryList(owner int32, l []Entry, beta []float64) {
	steps := 0
	for j := range l {
		if isStep(l, j) {
			steps++
		}
	}
	w.list(owner, len(l), steps)
	for j := range l {
		if isStep(l, j) {
			w.step(l[j].Dist)
		}
	}
	for j, e := range l {
		w.add(e.Node, isStep(l, j))
	}
	w.flush()
	for _, b := range beta {
		w.putRaw(math.Float64bits(b))
	}
}

// copyList appends local node v's list of src, whose lists are coded as
// w's are when same: its bits as they are, or else its counts and steps
// coded afresh and its node codes and β copied.
func (w *nodeWriter) copyList(src *Frame, v int, same bool) {
	lo, hi := src.bitAt(v), src.bitAt(v+1)
	if same {
		w.copy(src.node.words, lo, hi-lo)
		return
	}
	l := src.listAt(v)
	w.list(src.owner(v), l.nodes.n, l.nodes.steps)
	r := l.sd.reader()
	for range l.nodes.steps {
		w.step(r.next())
	}
	w.copy(src.node.words, l.nodes.bit, hi-l.nodes.bit)
}

// codeBits returns what the frame's lists are expected to take, to size
// their writers: b+2 bits an entry, b the Rice parameter of the mean run m
// below the node count or, rank-ordered, below √(k·total) — the bound's
// geometric mean along a list — log₂ m + 1 bits a run, the counts' codes
// and the steps', and 64 bits a β.
func (f *Frame) codeBits() int64 {
	e, runs, n, lc := f.entries, max(f.steps, 1), int64(f.n), &f.node.lc
	lm, lt, lk := int64(bits.Len64(uint64(e/runs))), int64(bits.Len64(uint64(f.total))), int64(bits.Len64(uint64(f.p.K)))
	half := 2*(lt-lm) + 4 // 2(b+2): b to the half bit
	if f.p.Kind == KindUniform {
		half = 2*lk + lt - lk - 2*lm + 4
	}
	b := e*max(half, 2)/2 + runs*(lm+1) + n*int64(lc.eb+lc.sb+4) + (f.steps-n)*64
	if lc.dict != nil {
		b -= (f.steps - n) * int64(63-lc.db)
	}
	if f.p.Kind == KindWeighted {
		b += 64 * e
	}
	return max(b, 0) // lists with no entries, which the writer refuses, make it negative
}

// minCoderNodes is the fewest lists codeNodes gives a goroutine of its own.
const minCoderNodes = 1024

// codeNodes codes the node stream of the frame's lists, under the codec
// and rank order f.node holds — pos being the order's positions, or nil
// where fill does not code IDs under them: fill codes list i whole with a
// writer that has ended list i−1.  Up to workers goroutines (<= 0:
// GOMAXPROCS) each code a node range (splitSpan) into a stream of their
// own, sized by bits, a guess at the stream's length (codeBits), and the
// streams are joined as bit ranges, so the bytes are the same for every
// count.  It returns the first list, in node order, that has no code.
func (f *Frame) codeNodes(pos []int32, bits int64, workers int, fill func(w *nodeWriter, i int)) error {
	n := f.n
	workers = max(1, min(passWorkers(workers, n), n/minCoderNodes))
	ws := make([]nodeWriter, workers)
	boff := make([]uint64, n+1)
	fanOut(workers, func(w int) {
		lo, hi := splitSpan(w, workers, n)
		wr := newNodeWriter(&f.node.lc, f.total, bits/int64(workers), pos, f.p.K)
		for i := lo; i < hi && wr.err == nil; i++ {
			boff[i] = uint64(wr.bits())
			fill(&wr, i)
		}
		wr.flush()
		ws[w] = wr
	})
	var at int64
	for w := range ws {
		lo, hi := splitSpan(w, workers, n)
		if err := ws[w].err; err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			boff[i] += uint64(at)
		}
		at += ws[w].bits()
	}
	boff[n] = uint64(at)
	words := ws[0].stream()
	if workers > 1 {
		words = make([]uint64, bitWords(at))
		at = 0
		for w := range ws {
			b := ws[w].bits()
			copyBits(words, at, ws[w].view(), 0, b)
			at += b
		}
	}
	f.boff, f.node.words = packOffsets(boff), words
	return nil
}

// own returns the frame as the one encoding of its own node range: itself,
// when its stream was coded for exactly its lists, and otherwise — a slice
// of a larger frame, whose counts and dictionary are its siblings' too —
// its lists coded under their own (joinFrames), which is what a partition
// file carries.
func (f *Frame) own() *Frame {
	if f.off0 == 0 && int64(f.n) == f.node.lc.nodes {
		return f
	}
	return joinFrames([]*Frame{f}, f.base, f.total)
}

// joinFrames codes the lists of frames, in order — nodes base... of a
// total-node set — as one frame of their own, under the counts and
// dictionary of their own steps: each list's bits copied where its frame
// codes it as the result does, and otherwise its counts and steps coded
// afresh around its node codes and β, which are copied as bit ranges.  The
// frames share the set's node count and rank order, which their node codes
// are coded under.
func joinFrames(frames []*Frame, base int32, total int) *Frame {
	first := frames[0]
	nodes, entries, steps, bits := 0, int64(0), int64(0), int64(0)
	for _, f := range frames {
		nodes, entries, steps, bits = nodes+f.n, entries+f.entries, steps+f.steps, bits+f.nodeBits()
	}
	raw := make([]float64, 0, steps)
	for _, f := range frames {
		for v := range f.n {
			raw = f.listAt(v).sd.appendSteps(raw)
		}
	}
	out := newFrame(first.p, base, total, nodes, entries, raw, first.node.order)
	fi, at := 0, 0 // the frame of list i, and its first list's i
	same := frames[0].node.lc.same(&out.node.lc)
	out.codeNodes(nil, bits+bits/16, 1, func(w *nodeWriter, i int) {
		for i-at >= frames[fi].n {
			at += frames[fi].n
			fi++
			same = frames[fi].node.lc.same(&out.node.lc)
		}
		w.copyList(frames[fi], i-at, same)
	})
	return out
}

// bitAt returns bit offset i of the frame: the position in the node stream
// of local node i's list, or the end of its last node's.
func (f *Frame) bitAt(i int) int64 { return int64(f.boff.get(f.off0 + int64(i))) }

// totalEntries returns the entry count of the frame's own node range
// (the stream may be shared with sibling partition frames).
func (f *Frame) totalEntries() int { return int(f.entries) }

// nodeBits returns the length of the lists of the frame's own node range.
func (f *Frame) nodeBits() int64 { return f.bitAt(f.n) - f.bitAt(0) }

// owner returns the global ID of local node v.
func (f *Frame) owner(local int) int32 { return f.base + int32(local) }

// listView is one list of a frame as its counts place it: its node codes,
// its steps, where its β start, and, when its counts and steps are not
// exactly codes inside its range, why not — what the stream readers refuse
// it for.  Whatever its bits hold, every part lies inside the range.
type listView struct {
	nodes Nodes // ending where a weighted set's β start
	sd    StepDists
	bad   string // "" for a list whose counts and steps are codes
}

// listAt returns local node v's list.
func (f *Frame) listAt(local int) listView {
	return f.node.list(f.bitAt(local), f.bitAt(local+1), f.owner(local), f.p.Kind == KindWeighted)
}

// list parses the counts of the list of owner in bits [bit, end) of the
// stream, and finds its steps: an entry count is cut to what the range can
// hold — an entry a bit, but a uniform list's owner, or a β's 64 bits — a
// step count to the entries, and raw steps to the range.
func (s *nodeStream) list(bit, end int64, owner int32, weighted bool) listView {
	lc := &s.lc
	r := bitIn{words: s.words, next: bit, end: end}
	n, steps := r.code(lc.eb)+1, r.code(lc.sb)+1
	at := r.pos()
	var bad string // the first reason the list is not exactly codes
	why := func(reason string) {
		if bad == "" {
			bad = reason
		}
	}
	if r.over {
		why("has no entry or step count inside its bits")
	}
	room := uint64(end - at)
	most := room + 1
	if weighted {
		most = room / 64
	}
	if n > most {
		n = most
		why("has an entry count its bits cannot hold")
	}
	if steps > n {
		steps = n
		why("has more distance steps than entries")
	}
	beta := end
	if weighted {
		beta -= int64(64 * n)
	}
	sd := StepDists{s: s, at: at, end: at, n: int(steps)}
	if lc.dict == nil {
		if fit := uint64(beta-at) / 64; steps > fit+1 {
			steps = fit + 1
			sd.n = int(steps)
			why("has distance steps its bits cannot hold")
		}
		sd.end = at + 64*int64(max(steps, 1)-1)
	} else if steps > 1 {
		cr := bitIn{words: s.words, next: at, end: beta}
		idx := uint64(0)
		for j := uint64(1); j < steps && !cr.over; j++ {
			idx += cr.code(lc.db) + 1
		}
		if cr.over {
			why("has distance steps its bits cannot hold")
		}
		if idx >= uint64(len(lc.dict)) {
			why(fmt.Sprintf("codes a distance step %d values into a dictionary of %d", idx, len(lc.dict)))
		}
		sd.end = cr.pos()
	}
	if weighted && n == 0 {
		why("has no room for its weights")
	}
	return listView{
		nodes: Nodes{nodeCodes: nodeCodes{s: s, bit: sd.end, end: beta, own: owner}, n: int(n), steps: int(steps)},
		sd:    sd, bad: bad,
	}
}

// betas appends the list's β, one an entry, to dst.
func (l *listView) betas(dst []float64) []float64 {
	for i := range int64(l.nodes.n) {
		dst = append(dst, math.Float64frombits(readBits(l.nodes.s.words, l.nodes.end+64*i, 64)))
	}
	return dst
}

// colsAt returns local node v's entry list as a column view, its nodes
// and runs decoded, in one allocation (and its β in another).  The slices
// carry full capacity bounds so an (erroneous) append cannot overwrite a
// neighboring sketch.
func (f *Frame) colsAt(local int) cols {
	c, p := f.colsOver(local)
	buf := make([]int32, p.n+p.steps)
	c.node, c.ends, _ = p.AppendRuns(buf[:0:p.n], buf[p.n:p.n])
	return c
}

// colsOver is colsAt with its nodes and runs not filled in, and the list's
// node codes, which decode them.
func (f *Frame) colsOver(local int) (cols, Nodes) {
	l := f.listAt(local)
	c := cols{sd: l.sd, by: &f.by}
	if f.p.Kind == KindWeighted {
		c.beta = l.betas(make([]float64, 0, l.nodes.n))
	}
	return c, l.nodes
}

// viewSketch constructs the kind's view of local node v.
func (f *Frame) viewSketch(local int) Sketch {
	k, owner := f.p.K, f.owner(local)
	if f.p.Kind == KindWeighted {
		return &WeightedADS{k: k, node: owner, scheme: f.p.Scheme, c: f.colsAt(local)}
	}
	return &ADS{k: k, node: owner, c: f.colsAt(local)}
}

// slice returns the sub-frame of local nodes [lo, hi): a window on the
// offsets over the same stream, its counts read off its lists'.  No entry
// data is allocated or copied.
func (f *Frame) slice(lo, hi int) *Frame {
	out := &Frame{
		p: f.p, n: hi - lo, base: f.base + int32(lo), total: f.total,
		boff: f.boff, off0: f.off0 + int64(lo), node: f.node, by: f.by,
	}
	for v := range out.n {
		p := out.listAt(v).nodes
		out.entries, out.steps = out.entries+int64(p.n), out.steps+int64(p.steps)
	}
	return out
}

// rankMemoSlots sizes the memo rankScratch derives through, or the memos
// of the goroutines that derive a frame's ranks together.  It is fixed —
// independent of the node count and of how many nodes a partition's
// entries name — so deriving costs a frame O(1) memory.  A sketch samples
// node j with probability ~k/π_vj, so the nodes that fill most entries
// are few and stay resident.
const rankMemoSlots = 1 << 14

// rankScratch serves the loops that read every rank of a frame
// (freeze- and read-time validation): one node's ranks at a time, in
// one reused buffer, through a direct-mapped (node, β) → rank memo, so
// they pay a hash per distinct node rather than per entry and allocate
// nothing per node.  The zero value is ready to use, and serves one frame:
// the memo does not key on the ranker.
type rankScratch struct {
	memo []rankMemoSlot // a power of two long: rankMemoSlots unless preset
	buf  []float64
	dbuf []float64 // the per-entry distances filled expands
	bbuf []float64 // a weighted list's β, which validate reads
	nbuf []int32   // the per-entry nodes filled unpacks
	ebuf []int32   // and the ends of their runs
}

type rankMemoSlot struct {
	key  uint64 // node + 1: zero is empty
	beta float64
	rank float64
}

// growFloats returns *buf resized to n, reallocating only when the
// capacity is short.
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// derive fills dst with the ranks by gives nodes (under the node weights
// betas, when non-nil), through the memo.
func (s *rankScratch) derive(dst []float64, by *ranker, nodes []int32, betas []float64) {
	if s.memo == nil {
		s.memo = make([]rankMemoSlot, rankMemoSlots)
	}
	mask := uint32(len(s.memo) - 1)
	for j, node := range nodes {
		var beta float64
		if betas != nil {
			beta = betas[j]
		}
		key := uint64(uint32(node)) + 1
		m := &s.memo[uint32(node)&mask]
		if m.key != key || m.beta != beta {
			*m = rankMemoSlot{key: key, beta: beta, rank: by.rank(node, beta)}
		}
		dst[j] = m.rank
	}
}

// filled returns the view c of the entries pn codes with its ranks and
// per-entry nodes and distances filled in — ranks derived into s.buf,
// nodes and runs decoded into s.nbuf and s.ebuf and distances expanded
// from the steps into s.dbuf — valid until the next call, and whether the
// nodes' bits were exactly their codes.
func (s *rankScratch) filled(c cols, pn Nodes) (cols, bool) {
	n := pn.n
	var exact bool
	s.nbuf, s.ebuf, exact = pn.AppendRuns(s.nbuf[:0], s.ebuf[:0])
	c.node, c.ends = s.nbuf[:n:n], s.ebuf
	c.dist = growFloats(&s.dbuf, n)[:n:n]
	c.sd.expand(c.dist, c.ends)
	c.rank = growFloats(&s.buf, n)[:n:n]
	s.derive(c.rank, c.by, c.node, c.beta)
	return c, exact
}

// validate checks the structural invariants of local node v's sketch:
// that its counts and steps are codes inside its bits, and its node codes
// exactly the codes of its entries in as many runs as it has steps.
// given, when non-nil, is the caller-built entry list the node was frozen
// from: its Rank fields, which the frame did not keep, must be the ones
// the frame derives, so that a frame cannot disagree with its own seed.
func (f *Frame) validate(s *rankScratch, local int, given []Entry) error {
	l := f.listAt(local)
	if l.bad != "" {
		return fmt.Errorf("core: ADS(%d) %s", f.owner(local), l.bad)
	}
	c := cols{sd: l.sd, by: &f.by}
	if f.p.Kind == KindWeighted {
		s.bbuf = l.betas(s.bbuf[:0])
		c.beta = s.bbuf
	}
	c, exact := s.filled(c, l.nodes)
	if !exact {
		return fmt.Errorf("core: ADS(%d)'s node codes are not the codes of its %d entries in %d runs", f.owner(local), c.len(), l.nodes.steps)
	}
	return f.validateCols(c, local, given)
}

// validateCols is validate over local node v's filled view c.
func (f *Frame) validateCols(c cols, local int, given []Entry) error {
	k, owner := f.p.K, f.owner(local)
	for i, e := range given {
		if u := c.node[i]; e.Node != u {
			if e.Node < 0 || int(e.Node) >= f.total {
				return fmt.Errorf("core: ADS(%d) entry %d names node %d outside [0, %d)", owner, i, e.Node, f.total)
			}
			return fmt.Errorf("core: ADS(%d) entry %d (node %d) is out of canonical order", owner, i, e.Node)
		}
		if r := c.rank[i]; e.Rank != r {
			return fmt.Errorf("core: ADS(%d) entry %d (node %d) has rank %g, the set's seed derives %g (seed %d)", owner, i, e.Node, e.Rank, r, f.p.Seed)
		}
	}
	// A code can spell any ID, the set's or not.
	for i, u := range c.node {
		if u < 0 || int(u) >= f.total {
			return fmt.Errorf("core: ADS(%d) entry %d names node %d outside [0, %d)", owner, i, u, f.total)
		}
	}
	var err error
	switch f.p.Kind {
	case KindWeighted:
		err = (&WeightedADS{k: k, node: owner, scheme: f.p.Scheme, c: c}).Validate()
	case KindApprox:
		err = validateApproxView(&ADS{k: k, node: owner, c: c})
	default:
		err = (&ADS{k: k, node: owner, c: c}).Validate()
	}
	if err != nil {
		return err
	}
	// The entries are in canonical order; so must their code be — maximal
	// runs, hence strictly ascending steps — or equal entries would not
	// mean equal bytes.  Only a file can get this wrong.
	r, prev := c.sd.reader(), 0.0
	for j := 0; j < c.sd.n; j++ {
		if d := r.next(); !(d >= 0) || j > 0 && d == prev {
			return fmt.Errorf("core: ADS(%d) has a redundant or invalid distance step %g at %d", owner, d, j)
		} else {
			prev = d
		}
	}
	return nil
}

// Index builds the HIP query index of local node v.  A node's HIP
// entries are its entries, so the index views the frame's node codes and
// steps and holds of its own one slice: a weight per entry — the ranks
// derived into it, then turned into weights in place — and a prefix sum
// per step, over the runs the nodes decode in.  Every readout is
// bit-identical to NewHIPIndex over the node's view; callers cache the
// result (query.IndexCache).
func (f *Frame) Index(local int32) *HIPIndex {
	l := f.listAt(int(local))
	pn := l.nodes
	e, s := pn.n, l.sd.n
	buf := make([]float64, e+s)
	w := buf[:e:e]
	var inline [64]int32 // the runs' ends, on the stack while they fit
	ends := inline[:min(s, len(inline))]
	if s > len(inline) {
		ends = make([]int32, s)
	}
	switch {
	case pn.s.order != nil:
		rankedWeights(&pn, w, ends)
	default:
		var beta []float64
		if f.p.Kind == KindWeighted {
			beta = l.betas(make([]float64, 0, e))
		}
		// The nodes, decoded into the first half of the weights' bytes, and
		// their ranks derived into the weights from the last: rank i's slot
		// holds nodes 2i and 2i+1, which are read by then.
		ids := unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(buf))), e)
		decodeTo(&pn, ids, ends)
		for i := e - 1; i >= 0; i-- {
			var b float64
			if beta != nil {
				b = beta[i]
			}
			w[i] = f.by.rank(ids[i], b)
		}
		h := newKSmallest(min(f.p.K, e)) // it never holds more than the entries
		if f.p.Kind == KindWeighted {
			w = hipWeightsWeighted(w, beta, f.p.Scheme, f.p.K, h, w[:0])
		} else {
			w = hipWeightsBottomK(w, f.p.K, h, w[:0])
		}
	}
	x := &HIPIndex{enode: pn.nodeCodes, stepAt: l.sd.at, steps: s, ew: w, cum: buf[e:e]}
	x.sum(ends)
	return x
}

// bytes returns the heap (or mapping) the frame's own node range
// occupies: the bit offsets, the lists — counts, steps, node codes and β
// where held — the dictionary, and a uniform set's rank order, which its
// node codes are decoded through and which the frames sliced from one
// share: 12 bytes a node of the whole set, counted as held once built.
func (f *Frame) bytes() int64 {
	b := 8*packedWords(int64(f.n)+1, f.boff.w) + 8*bitWords(f.nodeBits()) + 8*int64(len(f.node.lc.dict))
	return b + f.node.order.bytes()
}

// hipWeightsBottomK appends the HIP adjusted weights of a bottom-k entry
// list with the given ranks (Lemma 5.1: 1/τ with τ the k-th smallest
// preceding rank) to out.  h is caller-provided scratch, reset before use.
// Rank i is read before weight i is written, so out may be ranks[:0].
func hipWeightsBottomK(ranks []float64, k int, h *kSmallest, out []float64) []float64 {
	h.reset()
	for _, r := range ranks {
		tau := 1.0
		if h.size() >= k {
			tau = h.max()
		}
		out = append(out, 1/tau)
		h.offer(r)
	}
	return out
}

// hipWeightsWeighted appends the Section 9 adjusted weights β/p (p the
// scheme's inclusion probability against the k-th smallest preceding
// biased rank) to out, which, as for hipWeightsBottomK, may be ranks[:0].
func hipWeightsWeighted(ranks, beta []float64, scheme WeightScheme, k int, h *kSmallest, out []float64) []float64 {
	h.reset()
	for i, r := range ranks {
		b := beta[i]
		w := b
		if h.size() >= k {
			tau := h.max()
			w = b / weightedInclusionProb(scheme, b, tau)
		}
		out = append(out, w)
		h.offer(r)
	}
	return out
}
