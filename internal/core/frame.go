package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"unsafe"

	"adsketch/internal/rank"
)

// Frozen columnar sketch storage.  A built sketch set never mutates, so
// instead of one heap object (and one entry slice) per node, every set
// owns a single Frame: an offsets array plus parallel entry columns shared
// by all of its sketches.  The sketch types (ADS, WeightedADS) are
// lightweight views over column slices — constructing
// one allocates a small header, never entry data — and a node's HIP query
// index views them too, holding only its weights and sums (Index).  A
// million-node set is a handful of large allocations instead of millions
// of small ones, splitting a set into partitions is offset slicing, and
// the version-3 codec serializes the columns verbatim, so opening a
// prebuilt file is O(columns) work (and zero copies when mmapped).
//
// A frame holds, per entry, a node ID Rice-coded within its run of equal
// distance — in a uniform set as its position in the set's rank order,
// below the run's bottom-k bound, at a parameter adapted gap by gap, and
// no code for the owner (nodepack.go: 6.2 bits at ten thousand nodes) —
// and — for weighted sets — β; per run, a code of its length (but the
// owner's and the last of a list, which its counts imply); per distinct
// distance of a sketch, one step: a code of a few bits into the frame's
// dictionary of distances where they are few, a float where they are not
// (stepcode.go); per node, an entry offset, a bit offset and a step
// offset; and no ranks.  No integer column is wider than the frame's own
// counts make it.  Distances are a staircase in canonical order, so they
// are stored as its steps, each as many entries long as its run.  A rank
// is a pure function of the seed and the node (and of β, which travels
// with the entry), so it is derived when asked for.

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

// cols is one columnar entry list: the columns of a contiguous entry
// range, in canonical (distance, node ID) order.  A cols either views a
// frame's shared columns (frozen sketches) or owns private slices (a
// sketch rebuilt from entries, colsFromEntries).  Its nodes are per entry,
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
// per node, described by an offsets column over shared entry columns.
// Offsets are absolute positions into the columns (local node v's entries
// start at entry off[v], its node codes at bit boff[v] of node and its
// steps at step soff[v]), so slicing a frame to a node range
// (partitioning) is a window on the offsets — off0 moves, no entry does.
// A slice also shares its parent's step column, dictionary and all; only a
// written partition carries the dictionary of its own steps.  base is the global ID of local
// node 0 (non-zero for partition frames) and total the node count of the
// whole set the frame is (a range of): what its entries' IDs are below, and
// so what fixes their codes' parameters.
type Frame struct {
	p     Params // what the set is; the ranker derives from it
	n     int
	base  int32
	total int
	off   packedColumn // absolute entry positions, offsetWidth(the column's last) bits each, packed
	boff  packedColumn // absolute positions in node of each list's codes, packed likewise
	soff  packedColumn // absolute positions in steps of each list's first step, packed likewise
	off0  int64        // position in off, boff and soff of local node 0's offset; n+1 of them are the frame's
	node  nodeStream   // every list's IDs and run lengths, Rice-coded run by run (nodepack.go); its total is the frame's
	steps stepColumn   // one distance per run of equal distance of a list
	beta  []float64    // weighted sets: β per entry, parallel to the entries
	by    ranker       // derives the ranks
}

// freezeWhole is freezeFrame for a whole set: local node 0 is node 0, and
// the lists are all there are.
func freezeWhole(p Params, lists [][]Entry) (*Frame, error) {
	return freezeFrame(p, 0, len(lists), lists)
}

// freezeFrame assembles the entry lists of nodes base... (node base+i's is
// lists[i]) of a total-node set of parameters p into one frame.  The
// entries' Rank fields are not kept; a list whose node IDs have no code
// (nodeWriter.flush) is refused, and callers that did not draw the entries
// from p and the set themselves check the rest against the frame's
// (validate).
func freezeFrame(p Params, base int32, total int, lists [][]Entry) (*Frame, error) {
	entries, steps := 0, 0
	for _, l := range lists {
		entries += len(l)
		for j := range l {
			if isStep(l, j) {
				steps++
			}
		}
	}
	pk := newFramePacker(p, base, total, len(lists), entries, steps)
	for _, l := range lists {
		pk.list()
		for j, e := range l {
			pk.add(e.Dist, isStep(l, j))
		}
	}
	f := pk.frame()
	err := f.codeNodes(newRankOrder(p, total), f.codeBits(), 0, func(w *nodeWriter, i int) {
		for j, e := range lists[i] {
			w.add(e.Node, isStep(lists[i], j))
		}
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// isStep reports whether entry j of l starts a distance step.
func isStep(l []Entry, j int) bool { return j == 0 || l[j].Dist != l[j-1].Dist }

// framePacker packs a frame's offsets and steps from its entries, fed in
// order — list starts each entry list, add appends an entry's distance to
// it — in one pass, and frame hands the frame over for its node codes
// (Frame.codeNodes): freezeFrame feeds it entry lists, and an Algorithm 1
// build on an unweighted graph (hopFrame) its passes' packed keys.
type framePacker struct {
	f      *Frame
	step   []float64
	listAt int64 // lists started
	pos    int64 // entries added
}

// newFramePacker returns the packer of the frame of the entry lists of
// nodes base, base+1, ... — nodes of them — of a total-node set of
// parameters p, which hold entries entries and steps distance steps in
// all.
func newFramePacker(p Params, base int32, total, nodes, entries, steps int) framePacker {
	return framePacker{
		f: &Frame{
			p: p, n: nodes, base: base, total: total,
			off:  makePackedColumn(int64(nodes+1), offsetWidth(int64(entries))),
			soff: makePackedColumn(int64(nodes+1), offsetWidth(int64(steps))),
			by:   newRanker(p),
		},
		step: make([]float64, 0, steps),
	}
}

func (pk *framePacker) list() {
	pk.f.off.put(pk.listAt, uint64(pk.pos))
	pk.f.soff.put(pk.listAt, uint64(len(pk.step)))
	pk.listAt++
}

// add appends an entry at distance dist, which starts a distance step of
// its list when step is set.
func (pk *framePacker) add(dist float64, step bool) {
	if step {
		pk.step = append(pk.step, dist)
	}
	pk.pos++
}

// codeBits returns what the frame's node codes are expected to take, to
// size their writers: b+2 bits an entry, b the Rice parameter of the mean
// run m below the node count or, rank-ordered, below √(k·total) — the
// bound's geometric mean along a list — and log₂ m + 1 bits a run.
func (f *Frame) codeBits() int64 {
	elo, ehi := f.entryRange()
	slo, shi := f.stepRange()
	e, runs := ehi-elo, max(shi-slo, 1)
	lm, lt, lk := int64(bits.Len64(uint64(e/runs))), int64(bits.Len64(uint64(f.total))), int64(bits.Len64(uint64(f.p.K)))
	half := 2*(lt-lm) + 4 // 2(b+2): b to the half bit
	if f.p.Kind == KindUniform {
		half = 2*lk + lt - lk - 2*lm + 4
	}
	return e*max(half, 2)/2 + runs*(lm+1)
}

// frame returns the packed frame, its node codes still to code.
func (pk *framePacker) frame() *Frame {
	pk.f.off.put(pk.listAt, uint64(pk.pos))
	pk.f.soff.put(pk.listAt, uint64(len(pk.step)))
	pk.f.steps = makeStepColumn(pk.step)
	return pk.f
}

// minCoderNodes is the fewest lists codeNodes gives a goroutine of its own.
const minCoderNodes = 1024

// codeNodes codes the node column of the frame's entry lists, whose
// offsets and step offsets are in place, in the rank order order (nil for
// the IDs as they are): fill adds list i's IDs to a writer that has
// started it.  Up to workers goroutines (<= 0: GOMAXPROCS) each code a
// node range (splitSpan) into a stream of their own, sized by bits, a
// guess at the column's length (codeBits), and the streams are joined as
// bit ranges, so the bytes are the same for every count.  It returns the
// first list, in node order, whose IDs have no code.
func (f *Frame) codeNodes(order *rankOrder, bits int64, workers int, fill func(w *nodeWriter, i int)) error {
	n := f.n
	var pos []int32
	if order != nil {
		pos = order.positions()
	}
	workers = max(1, min(passWorkers(workers, n), n/minCoderNodes))
	ws := make([]nodeWriter, workers)
	boff := make([]uint64, n+1)
	fanOut(workers, func(w int) {
		lo, hi := splitSpan(w, workers, n)
		wr := newNodeWriter(f.total, bits/int64(workers), pos, f.p.K)
		for i := lo; i < hi && wr.err == nil; i++ {
			boff[i] = uint64(wr.bits())
			elo, ehi := f.span(i)
			slo, shi := f.stepSpan(i)
			wr.list(f.base+int32(i), int(ehi-elo), int(shi-slo))
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
	f.boff, f.node = packOffsets(boff), nodeStream{words: words, total: f.total, order: order, k: f.p.K}
	return nil
}

// ownSteps returns the frame's steps as a column of their own: the
// frame's, when its node range uses all of it, and otherwise — a slice of
// a larger frame, whose dictionary may hold distances only its siblings
// reach — the canonical column of just those steps, which is what a
// partition file carries.
func (f *Frame) ownSteps() *stepColumn {
	slo, shi := f.stepRange()
	if slo == 0 && shi == f.steps.n {
		return &f.steps
	}
	own := makeStepColumn(f.steps.appendRaw(make([]float64, 0, shi-slo), slo, shi))
	return &own
}

// ownOffsets returns the frame's offsets c — f.off or f.boff — as a
// column of their own, from 0: the frame's, when they are that already,
// and otherwise — a slice's window on its parent's — rebased and packed at
// the width the frame's own range needs, so that a sliced partition is
// written as the bytes of one that was loaded or frozen by itself.
func (f *Frame) ownOffsets(c *packedColumn) *packedColumn {
	n := int64(f.numOffsets())
	lo, hi := int64(c.get(f.off0)), int64(c.get(f.off0+n-1))
	if f.off0 == 0 && lo == 0 && c.w == offsetWidth(hi) && c.holds(n) {
		return c
	}
	own := makePackedColumn(n, offsetWidth(hi-lo))
	for i := int64(0); i < n; i++ {
		own.put(i, c.get(f.off0+i)-uint64(lo))
	}
	return &own
}

// offAt returns offset i of the frame: the position of the first entry of
// local node i, or the end of its last node's.
func (f *Frame) offAt(i int) int64 { return int64(f.off.get(f.off0 + int64(i))) }

// bitAt returns bit offset i of the frame: the position in the node stream
// of local node i's first code, or the end of its last node's codes.
func (f *Frame) bitAt(i int) int64 { return int64(f.boff.get(f.off0 + int64(i))) }

// stepAt returns step offset i of the frame: the position in the step
// column of local node i's first step, or the end of its last node's.
func (f *Frame) stepAt(i int) int64 { return int64(f.soff.get(f.off0 + int64(i))) }

// numOffsets returns the frame's offset count.
func (f *Frame) numOffsets() int { return f.n + 1 }

// entryRange returns the range of entry positions of the frame's own node
// range.
func (f *Frame) entryRange() (lo, hi int64) { return f.offAt(0), f.offAt(f.n) }

// stepRange returns the range of the step column that the frame's own
// entries use.
func (f *Frame) stepRange() (lo, hi int64) { return f.stepAt(0), f.stepAt(f.n) }

// totalEntries returns the entry count of the frame's own node range
// (the columns may be shared with sibling partition frames).
func (f *Frame) totalEntries() int {
	lo, hi := f.entryRange()
	return int(hi - lo)
}

// nodeBits returns the length of the node codes of the frame's own node
// range.
func (f *Frame) nodeBits() int64 { return f.bitAt(f.n) - f.bitAt(0) }

// owner returns the global ID of local node v.
func (f *Frame) owner(local int) int32 { return f.base + int32(local) }

// nodesAt returns local node v's node codes.
func (f *Frame) nodesAt(local int) Nodes {
	lo, hi := f.span(local)
	slo, shi := f.stepSpan(local)
	return Nodes{nodeCodes: nodeCodes{s: &f.node, bit: f.bitAt(local), end: f.bitAt(local + 1), own: f.owner(local)}, n: int(hi - lo), steps: int(shi - slo)}
}

// stepsAt returns local node v's steps.
func (f *Frame) stepsAt(local int) StepDists {
	lo, hi := f.stepSpan(local)
	return StepDists{col: &f.steps, slo: lo, n: int(hi - lo)}
}

// colsAt returns local node v's entry list as a column view, its nodes
// and runs decoded, in one allocation.  The slices carry full capacity
// bounds so an (erroneous) append cannot overwrite a neighboring sketch.
func (f *Frame) colsAt(local int) cols {
	c, p := f.colsOver(local), f.nodesAt(local)
	buf := make([]int32, p.n+p.steps)
	c.node, c.ends, _ = p.AppendRuns(buf[:0:p.n], buf[p.n:p.n])
	return c
}

// colsOver is colsAt with its nodes and runs not filled in.
func (f *Frame) colsOver(local int) cols {
	c := cols{sd: f.stepsAt(local), by: &f.by}
	if f.beta != nil {
		lo, hi := f.span(local)
		c.beta = f.beta[lo:hi:hi]
	}
	return c
}

// span returns the absolute entry range of local node v.
func (f *Frame) span(local int) (lo, hi int64) { return f.offAt(local), f.offAt(local + 1) }

// stepSpan returns the absolute step range of local node v.
func (f *Frame) stepSpan(local int) (lo, hi int64) { return f.stepAt(local), f.stepAt(local + 1) }

// viewSketch constructs the kind's view of local node v.
func (f *Frame) viewSketch(local int) Sketch {
	k, owner := f.p.K, f.owner(local)
	if f.p.Kind == KindWeighted {
		return &WeightedADS{k: k, node: owner, scheme: f.p.Scheme, c: f.colsAt(local)}
	}
	return &ADS{k: k, node: owner, c: f.colsAt(local)}
}

// slice returns the sub-frame of local nodes [lo, hi): a window on the
// offsets over the same shared columns.  No entry data is allocated or
// copied.
func (f *Frame) slice(lo, hi int) *Frame {
	return &Frame{
		p: f.p, n: hi - lo, base: f.base + int32(lo), total: f.total,
		off: f.off, boff: f.boff, soff: f.soff, off0: f.off0 + int64(lo),
		node: f.node, steps: f.steps,
		beta: f.beta, by: f.by,
	}
}

// mergeFrames concatenates frames (already validated to be a consistent,
// ordered split) into one whole frame with compact columns.  The
// partitions of a split share the whole set's node count and rank order,
// so their node codes are copied as bit ranges; their steps may be coded through as
// many dictionaries as there are frames, so they are read back as
// distances and coded afresh.
func mergeFrames(frames []*Frame) *Frame {
	first := frames[0]
	total, steps, nodes, stream := int64(0), int64(0), 0, int64(0)
	for _, f := range frames {
		total += int64(f.totalEntries())
		slo, shi := f.stepRange()
		steps += shi - slo
		nodes += f.n
		stream += f.nodeBits()
	}
	out := &Frame{
		p: first.p, n: nodes, base: 0, total: nodes,
		off:  makePackedColumn(int64(nodes+1), offsetWidth(total)),
		boff: makePackedColumn(int64(nodes+1), offsetWidth(stream)),
		soff: makePackedColumn(int64(nodes+1), offsetWidth(steps)),
		node: nodeStream{words: make([]uint64, bitWords(stream)), total: nodes, order: first.node.order, k: first.p.K},
		by:   first.by,
	}
	step := make([]float64, 0, steps)
	if first.p.Kind == KindWeighted {
		out.beta = make([]float64, total)
	}
	pos, bit, at := int64(0), int64(0), int64(0)
	for _, f := range frames {
		flo, fhi := f.entryRange()
		blo, bhi := f.bitAt(0), f.bitAt(f.n)
		slo, shi := f.stepRange()
		copyBits(out.node.words, bit, f.node.words, blo, bhi-blo)
		s := int64(len(step))
		step = f.steps.appendRaw(step, slo, shi)
		if out.beta != nil {
			copy(out.beta[pos:], f.beta[flo:fhi])
		}
		for i := 0; i < f.n; i++ {
			out.off.put(at, uint64(pos+f.offAt(i)-flo))
			out.boff.put(at, uint64(bit+f.bitAt(i)-blo))
			out.soff.put(at, uint64(s+f.stepAt(i)-slo))
			at++
		}
		pos += fhi - flo
		bit += bhi - blo
	}
	out.off.put(at, uint64(pos))
	out.boff.put(at, uint64(bit))
	out.soff.put(at, uint64(len(step)))
	out.steps = makeStepColumn(step)
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

// validate checks the structural invariants of local node v's sketch,
// and that its node codes are exactly the codes of its entries in as many
// runs as it has steps.  given, when non-nil, is the caller-built entry
// list the node was frozen from: its Rank fields, which the frame did not
// keep, must be the ones the frame derives, so that a frame cannot
// disagree with its own seed.
func (f *Frame) validate(s *rankScratch, local int, given []Entry) error {
	p := f.nodesAt(local)
	c, exact := s.filled(f.colsOver(local), p)
	if !exact {
		return fmt.Errorf("core: ADS(%d)'s node codes are not the codes of its %d entries in %d runs", f.owner(local), c.len(), p.steps)
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
	for j := 0; j < c.sd.n; j++ {
		if d := c.sd.step(j); !(d >= 0) || j > 0 && d == c.sd.step(j-1) {
			return fmt.Errorf("core: ADS(%d) has a redundant or invalid distance step %g at %d", owner, d, j)
		}
	}
	return nil
}

// Index builds the HIP query index of local node v.  A node's HIP
// entries are its entries, so the index views the frame's node column
// and steps and holds of its own one slice: a weight per entry — the
// ranks derived into it, then turned into weights in place — and a prefix
// sum per step, over the runs the nodes decode in.  Every readout is
// bit-identical to NewHIPIndex over the node's view; callers cache the
// result (query.IndexCache).
func (f *Frame) Index(local int32) *HIPIndex {
	c, pn := f.colsOver(int(local)), f.nodesAt(int(local))
	e, s := pn.n, c.sd.n
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
		// The nodes, decoded into the first half of the weights' bytes, and
		// their ranks derived into the weights from the last: rank i's slot
		// holds nodes 2i and 2i+1, which are read by then.
		ids := unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(buf))), e)
		decodeTo(&pn, ids, ends)
		for i := e - 1; i >= 0; i-- {
			var b float64
			if c.beta != nil {
				b = c.beta[i]
			}
			w[i] = c.by.rank(ids[i], b)
		}
		h := newKSmallest(min(f.p.K, e)) // it never holds more than the entries
		if f.p.Kind == KindWeighted {
			w = hipWeightsWeighted(w, c.beta, f.p.Scheme, f.p.K, h, w[:0])
		} else {
			w = hipWeightsBottomK(w, f.p.K, h, w[:0])
		}
	}
	x := &HIPIndex{enode: pn.nodeCodes, ew: w, sd: c.sd, cum: buf[e:e]}
	x.sum(ends)
	return x
}

// bytes returns the heap (or mapping) the frame's own node range
// occupies: offsets, bit offsets and step offsets, node codes, the steps —
// codes and dictionary, or raw — β where held, and a uniform set's rank
// order, which its node codes are decoded through and which the frames
// sliced from one share: 12 bytes a node of the whole set, counted as held
// once built.
func (f *Frame) bytes() int64 {
	e := int64(f.totalEntries())
	slo, shi := f.stepRange()
	o := int64(f.numOffsets())
	b := 8*packedWords(o, f.off.w) + 8*packedWords(o, f.boff.w) + 8*packedWords(o, f.soff.w) + 8*bitWords(f.nodeBits())
	if c := &f.steps; c.dict != nil {
		b += 8*packedWords(shi-slo, c.code.w) + 8*int64(len(c.dict)+len(c.uses))
	} else {
		b += 8 * (shi - slo)
	}
	if f.beta != nil {
		b += 8 * e
	}
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
