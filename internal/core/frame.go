package core

import (
	"fmt"
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
// A frame holds, per entry, a node ID in the ⌈log₂ total⌉ bits an ID of
// its set needs (nodepack.go: 14 bits at ten thousand nodes, bit-packed
// back to back), one bit of distance step code (stepcode.go) and — for
// weighted sets — β; per distinct distance of a sketch, one step: a code
// of a few bits into the frame's dictionary of distances where they are
// few, a float where they are not; per node, an offset in the bits an
// entry position needs; and no ranks.  No integer column is wider than
// the frame's own counts make it (nodepack.go).  Distances are a
// staircase in canonical order, so they are stored as its steps: entry
// i's distance is that of step number [set bits of first up to and
// including i, less one].  A rank is a pure function of the seed and the
// node (and of β, which travels with the entry), so it is derived when
// asked for.

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
// sketch rebuilt from entries, colsFromEntries).  Its ranks, nodes and
// distances are per entry when rank, node and dist are non-nil — a rebuilt
// sketch's own columns, or the scratch Frame.ranked fills for whole-node
// loops — and otherwise derived through by and read off the frame's
// packed node column pn and step code sd.
type cols struct {
	node []int32
	pn   Nodes
	dist []float64
	sd   StepDists
	rank []float64
	beta []float64 // weighted sketches: β per entry
	by   *ranker
}

func (c *cols) len() int {
	if c.node != nil {
		return len(c.node)
	}
	return c.pn.n
}

// nodeAt returns the node of entry i.
func (c *cols) nodeAt(i int) int32 {
	if c.node != nil {
		return c.node[i]
	}
	return c.pn.At(i)
}

// nodes returns the node of every entry: the per-entry column, or a fresh
// slice unpacked from the frame's.
func (c *cols) nodes() []int32 {
	if c.node != nil || c.pn.n == 0 {
		return c.node
	}
	return c.pn.AppendTo(make([]int32, 0, c.pn.n), 0, c.pn.n)
}

// distAt returns the distance of entry i.
func (c *cols) distAt(i int) float64 {
	if c.dist != nil {
		return c.dist[i]
	}
	return c.sd.at(i)
}

// dists returns the distance of every entry: the per-entry column, or a
// fresh slice expanded from the steps.
func (c *cols) dists() []float64 {
	if c.dist != nil || c.len() == 0 {
		return c.dist
	}
	out := make([]float64, c.len())
	c.sd.expand(out)
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
	return c.by.rank(c.nodeAt(i), b)
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
	return Entry{Node: c.nodeAt(i), Dist: c.distAt(i), Rank: c.rankAt(i)}
}

// entries materializes the columns as an entry slice.
func (c *cols) entries() []Entry {
	out := make([]Entry, c.len())
	dist := c.dists()
	for i := range out {
		out[i] = Entry{Node: c.nodeAt(i), Dist: dist[i], Rank: c.rankAt(i)}
	}
	return out
}

// weighted pairs the entries with the adjusted weights w.
func (c *cols) weighted(w []float64) []WeightedEntry {
	out := make([]WeightedEntry, c.len())
	dist := c.dists()
	for i := range out {
		out[i] = WeightedEntry{Node: c.nodeAt(i), Dist: dist[i], Weight: w[i]}
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
// Offsets are absolute positions into
// the columns (entry p's ID is bits [p·w, (p+1)·w) of node, its step bit
// is bit p of first), so slicing a frame to a node range (partitioning) is
// a window on the offsets — off0 moves, no entry does — and the steps of
// the entries from position p on start at step rank1(p).  A slice also
// shares its parent's step column, dictionary and all; only a written
// partition carries the dictionary of its own steps.  base is the global ID of
// local node 0 (non-zero for partition frames) and total the node count
// of the whole set the frame is (a range of): what its entries' IDs are
// below, and so what fixes their width.
type Frame struct {
	p     Params // what the set is; the ranker derives from it
	n     int
	base  int32
	total int
	off   packedColumn // absolute entry positions, offsetWidth(the column's last) bits each, packed
	off0  int64        // position in off of local node 0's offset; n+1 of them are the frame's
	node  packedColumn // nodeWidth(total) bits per entry, packed
	first []uint64     // one bit per entry: set where a distance step starts
	samp  []int64      // sampled popcounts of first, for rank1
	steps stepColumn   // one distance per set bit of first
	beta  []float64    // weighted sets: β per entry, parallel to node
	by    ranker       // derives the ranks
}

// freezeWhole is freezeFrame for a whole set: local node 0 is node 0, and
// the lists are all there are.
func freezeWhole(p Params, lists [][]Entry) *Frame {
	return freezeFrame(p, 0, len(lists), lists)
}

// freezeFrame assembles the entry lists of nodes base... (node base+i's is
// lists[i]) of a total-node set of parameters p into one frame.  The
// entries' Rank fields are not kept, and a Node outside the set loses its
// high bits: callers that did not draw them from p and the set themselves
// check them against the frame's (validate).
func freezeFrame(p Params, base int32, total int, lists [][]Entry) *Frame {
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
			pk.add(e.Node, e.Dist, isStep(l, j))
		}
	}
	return pk.frame()
}

// isStep reports whether entry j of l starts a distance step.
func isStep(l []Entry, j int) bool { return j == 0 || l[j].Dist != l[j-1].Dist }

// framePacker packs a frame's columns from its entries, fed in order —
// list starts each entry list, add appends an entry to it — in one pass:
// freezeFrame feeds it entry lists, and an Algorithm 1 build on an
// unweighted graph (hopFrame) its passes' packed keys.
type framePacker struct {
	f      *Frame
	first  []uint64
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
			node: makePackedColumn(int64(entries), nodeWidth(total)),
			by:   newRanker(p),
		},
		first: make([]uint64, bitWords(int64(entries))),
		step:  make([]float64, 0, steps),
	}
}

func (pk *framePacker) list() {
	pk.f.off.put(pk.listAt, uint64(pk.pos))
	pk.listAt++
}

// add appends an entry of node at distance dist, which starts a distance
// step of its list when step is set.
func (pk *framePacker) add(node int32, dist float64, step bool) {
	pk.f.node.put(pk.pos, nodeBits(node))
	if step {
		setBit(pk.first, pk.pos)
		pk.step = append(pk.step, dist)
	}
	pk.pos++
}

// frame returns the packed frame.
func (pk *framePacker) frame() *Frame {
	pk.f.off.put(pk.listAt, uint64(pk.pos))
	pk.f.setSteps(pk.first, pk.step)
	return pk.f
}

// setSteps installs the frame's step code — the bits, and the canonical
// column of the steps step (makeStepColumn) — and indexes the bits for
// rank1.
func (f *Frame) setSteps(first []uint64, step []float64) {
	f.first, f.steps = first, makeStepColumn(step)
	f.samp, _ = sampleRanks(first)
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

// ownOffsets returns the frame's offsets as a column of their own, from 0:
// the frame's, when they are that already, and otherwise — a slice's
// window on its parent's — rebased and packed at the width the frame's own
// entry count needs, so that a sliced partition is written as the bytes of
// one that was loaded or frozen by itself.
func (f *Frame) ownOffsets() *packedColumn {
	lo, hi := f.entryRange()
	n := int64(f.numOffsets())
	if f.off0 == 0 && lo == 0 && f.off.w == offsetWidth(hi) && f.off.holds(n) {
		return &f.off
	}
	own := makePackedColumn(n, offsetWidth(hi-lo))
	for i := int64(0); i < n; i++ {
		own.put(i, f.off.get(f.off0+i)-uint64(lo))
	}
	return &own
}

// offAt returns offset i of the frame: the position of the first entry of
// local node i, or the end of its last node's.
func (f *Frame) offAt(i int) int64 { return int64(f.off.get(f.off0 + int64(i))) }

// numOffsets returns the frame's offset count.
func (f *Frame) numOffsets() int { return f.n + 1 }

// entryRange returns the range of entry positions of the frame's own node
// range.
func (f *Frame) entryRange() (lo, hi int64) { return f.offAt(0), f.offAt(f.n) }

// stepRange returns the range of the step column that the frame's own
// entries use.
func (f *Frame) stepRange() (lo, hi int64) {
	elo, ehi := f.entryRange()
	return f.rank1(elo), f.rank1(ehi)
}

// totalEntries returns the entry count of the frame's own node range
// (the columns may be shared with sibling partition frames).
func (f *Frame) totalEntries() int {
	lo, hi := f.entryRange()
	return int(hi - lo)
}

// owner returns the global ID of local node v.
func (f *Frame) owner(local int) int32 { return f.base + int32(local) }

// width returns the bits per ID of the node column: nodeWidth(f.total).
func (f *Frame) width() uint { return f.node.w }

// colsAt returns local node v's entry list as a column view.  The slices
// carry full capacity bounds so an (erroneous) append cannot overwrite a
// neighboring sketch.
func (f *Frame) colsAt(local int) cols {
	lo, hi := f.span(local)
	return f.colsOver(lo, hi, f.rank1(lo))
}

// colsOver is colsAt for the entry range [lo, hi) whose steps start at
// step slo — which colsAt looks up, and a caller still assembling the
// frame knows.
func (f *Frame) colsOver(lo, hi, slo int64) cols {
	c := cols{
		pn: f.node.view(lo, hi),
		sd: StepDists{first: f.first, lo: lo, col: &f.steps, slo: slo, n: countBits(f.first, lo, hi)},
		by: &f.by,
	}
	if f.beta != nil {
		c.beta = f.beta[lo:hi:hi]
	}
	return c
}

// span returns the absolute entry range of local node v.
func (f *Frame) span(local int) (lo, hi int64) { return f.offAt(local), f.offAt(local + 1) }

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
		off: f.off, off0: f.off0 + int64(lo),
		node: f.node, first: f.first, samp: f.samp, steps: f.steps,
		beta: f.beta, by: f.by,
	}
}

// mergeFrames concatenates frames (already validated to be a consistent,
// ordered split) into one whole frame with compact columns.  The
// partitions of a split share the whole set's ID width, so their node
// ranges are copied as bit ranges; their steps may be coded through as
// many dictionaries as there are frames, so they are read back as
// distances and coded afresh.
func mergeFrames(frames []*Frame) *Frame {
	first := frames[0]
	total, steps, nodes := int64(0), int64(0), 0
	for _, f := range frames {
		total += int64(f.totalEntries())
		slo, shi := f.stepRange()
		steps += shi - slo
		nodes += f.n
	}
	out := &Frame{
		p: first.p, n: nodes, base: 0, total: nodes,
		off:  makePackedColumn(int64(nodes+1), offsetWidth(total)),
		node: makePackedColumn(total, nodeWidth(nodes)),
		by:   first.by,
	}
	marks, step := make([]uint64, bitWords(total)), make([]float64, 0, steps)
	if first.p.Kind == KindWeighted {
		out.beta = make([]float64, total)
	}
	pos, at := int64(0), int64(0)
	for _, f := range frames {
		flo, fhi := f.entryRange()
		out.node.copyFrom(pos, &f.node, flo, fhi-flo)
		copyBits(marks, pos, f.first, flo, fhi-flo)
		slo, shi := f.stepRange()
		step = f.steps.appendRaw(step, slo, shi)
		if out.beta != nil {
			copy(out.beta[pos:], f.beta[flo:fhi])
		}
		for i := 0; i < f.n; i++ {
			out.off.put(at, uint64(pos+f.offAt(i)-flo))
			at++
		}
		pos += fhi - flo
	}
	out.off.put(at, uint64(pos))
	out.setSteps(marks, step)
	return out
}

// rankMemoSlots sizes the memo rankScratch derives through.  It is fixed —
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
	memo *[rankMemoSlots]rankMemoSlot
	buf  []float64
	dbuf []float64 // the per-entry distances filled expands
	nbuf []int32   // the per-entry nodes filled unpacks
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
		s.memo = new([rankMemoSlots]rankMemoSlot)
	}
	for j, node := range nodes {
		var beta float64
		if betas != nil {
			beta = betas[j]
		}
		key := uint64(uint32(node)) + 1
		m := &s.memo[uint32(node)%rankMemoSlots]
		if m.key != key || m.beta != beta {
			*m = rankMemoSlot{key: key, beta: beta, rank: by.rank(node, beta)}
		}
		dst[j] = m.rank
	}
}

// filled returns the view c with its ranks and per-entry nodes and
// distances filled in — ranks derived into s.buf, nodes unpacked into
// s.nbuf and distances expanded from the steps into s.dbuf — valid until
// the next call.  Its pn and sd still alias the frame.
func (s *rankScratch) filled(c cols) cols {
	n := c.pn.n
	s.nbuf = c.pn.AppendTo(s.nbuf[:0], 0, n)
	c.node = s.nbuf[:n:n]
	c.dist = growFloats(&s.dbuf, n)[:n:n]
	c.sd.expand(c.dist)
	c.rank = growFloats(&s.buf, n)[:n:n]
	s.derive(c.rank, c.by, c.node, c.beta)
	return c
}

// validate checks the structural invariants of local node v's sketch.
// given, when non-nil, is the caller-built entry list the node was frozen
// from: its Rank fields, which the frame did not keep, must be the ones
// the frame derives, so that a frame cannot disagree with its own seed.
func (f *Frame) validate(s *rankScratch, local int, given []Entry) error {
	return f.validateCols(s.filled(f.colsAt(local)), local, given)
}

// validateCols is validate over local node v's filled view c.
func (f *Frame) validateCols(c cols, local int, given []Entry) error {
	k, owner := f.p.K, f.owner(local)
	for i, e := range given {
		if u := c.node[i]; e.Node != u {
			return fmt.Errorf("core: ADS(%d) entry %d names node %d outside [0, %d)", owner, i, e.Node, f.total)
		}
		if r := c.rank[i]; e.Rank != r {
			return fmt.Errorf("core: ADS(%d) entry %d (node %d) has rank %g, the set's seed derives %g (seed %d)", owner, i, e.Node, e.Rank, r, f.p.Seed)
		}
	}
	// An ID is stored in the bits the largest of the set needs, which can
	// spell a larger one still.
	for i, u := range c.node {
		if int(u) >= f.total {
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
// entries are its entries, so the index views the frame's node column,
// step bits and steps and holds of its own one slice: a weight per entry
// — the ranks derived into it, then turned into weights in place — and a
// prefix sum per step.  Every readout is bit-identical to NewHIPIndex
// over the node's view; callers cache the result (query.IndexCache).
func (f *Frame) Index(local int32) *HIPIndex {
	c := f.colsAt(int(local))
	e, s := c.len(), c.sd.n
	buf := make([]float64, e+s)
	w := buf[:e:e]
	for i := range w {
		w[i] = c.rankAt(i)
	}
	h := newKSmallest(min(f.p.K, e)) // it never holds more than the entries
	if f.p.Kind == KindWeighted {
		w = hipWeightsWeighted(w, c.beta, f.p.Scheme, f.p.K, h, w[:0])
	} else {
		w = hipWeightsBottomK(w, f.p.K, h, w[:0])
	}
	x := &HIPIndex{enode: c.pn, ew: w, sd: c.sd, cum: buf[e:e], own: int64(unsafe.Sizeof(HIPIndex{})) + 8*int64(len(buf))}
	x.sum()
	return x
}

// bytes returns the heap (or mapping) the frame's own node range
// occupies: offsets, packed nodes, step bits and their popcount samples
// (heap even under a mapping), the steps — codes and dictionary, or raw —
// and β where held.
func (f *Frame) bytes() int64 {
	e := int64(f.totalEntries())
	slo, shi := f.stepRange()
	b := 8*packedWords(int64(f.numOffsets()), f.off.w) + 8*packedWords(e, f.width()) +
		8*bitWords(e) + 8*(bitWords(e)/rankSampleWords+1)
	if c := &f.steps; c.dict != nil {
		b += 8*packedWords(shi-slo, c.code.w) + 8*int64(len(c.dict)+len(c.uses))
	} else {
		b += 8 * (shi - slo)
	}
	if f.beta != nil {
		b += 8 * e
	}
	return b
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
