package core

import (
	"fmt"
	"slices"
	"sort"
	"unsafe"

	"adsketch/internal/rank"
	"adsketch/internal/sketch"
)

// Frozen columnar sketch storage.  A built sketch set never mutates, so
// instead of one heap object (and one entry slice) per node, every set
// owns a single Frame: an offsets array plus parallel entry columns shared
// by all of its sketches.  The sketch types (ADS, WeightedADS, KMinsADS,
// KPartitionADS) are lightweight views over column slices — constructing
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
// weighted sets — β; per distinct distance of a segment, one step: a code
// of a few bits into the frame's dictionary of distances where they are
// few, a float where they are not; per segment, an offset in the bits an
// entry position needs; and no ranks.  No integer column is wider than
// the frame's own counts make it (nodepack.go).  Distances are a
// staircase in canonical order, so they are stored as its steps: entry
// i's distance is that of step number [set bits of first up to and
// including i, less one].  A rank is a pure function of the seed and the
// node (and of β, which travels with the entry), so it is derived when
// asked for.  A file of an older layout, which may store ranks, distances
// per entry or wider columns, is read into entry lists and frozen like a
// build's (legacy.go).

// ranker derives the rank of an entry from what its frame records: the
// seed, the flavor and base of a uniform set, the scheme of a weighted
// one.  It is the arithmetic the builders draw ranks with (Options.rankFn
// is built on it), so a derived rank is bit-equal to the one the entry
// was sampled under.
type ranker struct {
	src      rank.Source
	kmins    bool // one permutation per segment
	rounded  bool // base-b ranks
	base     rank.BaseB
	weighted bool
	scheme   WeightScheme
}

// newRanker returns the ranker of a set of a valid p, whose unused fields
// are zero.
func newRanker(p Params) ranker {
	r := ranker{src: p.Source(), kmins: p.Flavor == sketch.KMins, weighted: p.Kind == KindWeighted, scheme: p.Scheme}
	if p.BaseB > 1 {
		r.rounded, r.base = true, rank.NewBaseB(p.BaseB)
	}
	return r
}

// rank returns the rank of node under permutation perm (k-mins only)
// and node weight beta (weighted sets only).
func (r *ranker) rank(perm int, node int32, beta float64) float64 {
	if r.weighted {
		if r.scheme == PriorityWeights {
			return r.src.PriorityRank(int64(node), beta)
		}
		return r.src.ExpRank(int64(node), beta)
	}
	var x float64
	if r.kmins {
		x = r.src.RankAt(perm, int64(node))
	} else {
		x = r.src.Rank(int64(node))
	}
	if r.rounded {
		x = r.base.Round(x)
	}
	return x
}

// cols is one columnar entry list: the columns of a contiguous entry
// range, in canonical (distance, node ID) order.  A cols either views a
// frame's shared columns (frozen sketches) or owns private slices
// (standalone sketches built incrementally via Offer).  Its ranks,
// nodes and distances are per entry when rank, node and dist are non-nil
// — a standalone sketch's own columns, or the scratch Frame.ranked fills
// for whole-node loops — and otherwise derived through by and read off
// the frame's packed node column pn and step code sd.
type cols struct {
	node []int32
	pn   Nodes
	dist []float64
	sd   StepDists
	rank []float64
	beta []float64 // weighted sketches: β per entry
	by   *ranker
	perm int // which permutation the list samples: its segment, for k-mins
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

// unpacked returns copies of the lists with per-entry nodes and distances
// in place, for a cursor merge that reads them at random.
func unpacked(lists []cols) []cols {
	out := make([]cols, len(lists))
	for i, c := range lists {
		c.node, c.dist = c.nodes(), c.dists()
		out[i] = c
	}
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
	return c.by.rank(c.perm, c.nodeAt(i), b)
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

// before reports whether entry i of c precedes entry j of d in the
// canonical order.
func (c *cols) before(i int, d *cols, j int) bool {
	if a, b := c.distAt(i), d.distAt(j); a != b {
		return a < b
	}
	return c.nodeAt(i) < d.nodeAt(j)
}

// push appends an entry.  Views into a frame's columns are sliced with full
// capacity bounds, so pushing onto one reallocates instead of corrupting
// the shared columns; a view that was deriving its ranks or reading the
// frame's packed nodes and step code stores ranks, nodes and distances
// first, as the pushed ones have to be.
func (c *cols) push(e Entry) {
	if c.len() > 0 {
		c.rank = c.ranks()
		c.dist = c.dists()
		c.node = c.nodes()
	}
	c.sd, c.pn = StepDists{}, Nodes{}
	c.node = append(c.node, e.Node)
	c.dist = append(c.dist, e.Dist)
	c.rank = append(c.rank, e.Rank)
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

// Frame is the frozen columnar storage of one sketch set: segs() segments
// per node (1 for bottom-k/weighted/approximate, k for the per-permutation
// and per-bucket lists of k-mins and k-partition), described by an offsets
// column over shared entry columns.  Offsets are absolute positions into
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
	p     Params // what the set is; segs and the ranker derive from it
	n     int
	base  int32
	total int
	off   packedColumn // absolute entry positions, offsetWidth(the column's last) bits each, packed
	off0  int64        // position in off of local node 0's first offset; n*segs+1 of them are the frame's
	node  packedColumn // nodeWidth(total) bits per entry, packed
	first []uint64     // one bit per entry: set where a distance step starts
	samp  []int64      // sampled popcounts of first, for rank1
	steps stepColumn   // one distance per set bit of first
	beta  []float64    // weighted sets: β per entry, parallel to node
	by    ranker       // derives the ranks
}

// segs returns the segments per node.
func (f *Frame) segs() int { return f.p.segs() }

// freezeWhole is freezeFrame for a whole set: local node 0 is node 0, and
// the lists are all there are.
func freezeWhole(p Params, lists [][]Entry) *Frame {
	return freezeFrame(p, 0, len(lists)/p.segs(), lists)
}

// freezeFrame assembles per-segment entry lists (node-major: segment s of
// node v is lists[v*segs+s]) of nodes base... of a total-node set of
// parameters p into one frame.  The entries' Rank fields are not kept, and
// a Node outside the set loses its high bits: callers that did not draw
// them from p and the set themselves check them against the frame's
// (validate).
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

// newFramePacker returns the packer of the frame of lists entry lists
// (node-major: segment s of node v is list v*segs+s) of nodes base... of a
// total-node set of parameters p, which hold entries entries and steps
// distance steps in all.
func newFramePacker(p Params, base int32, total, lists, entries, steps int) framePacker {
	return framePacker{
		f: &Frame{
			p: p, n: lists / p.segs(), base: base, total: total,
			off:  makePackedColumn(int64(lists+1), offsetWidth(int64(entries))),
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
// segment i of its own node range, or the end of its last.
func (f *Frame) offAt(i int) int64 { return int64(f.off.get(f.off0 + int64(i))) }

// numOffsets returns the frame's offset count.
func (f *Frame) numOffsets() int { return f.n*f.segs() + 1 }

// entryRange returns the range of entry positions of the frame's own node
// range.
func (f *Frame) entryRange() (lo, hi int64) { return f.offAt(0), f.offAt(f.n * f.segs()) }

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

// segAt returns segment s of local node v as a column view.  The slices
// carry full capacity bounds so an (erroneous) append cannot overwrite a
// neighboring sketch.
func (f *Frame) segAt(local, s int) cols {
	lo := f.offAt(local*f.segs() + s)
	return f.segOver(lo, f.offAt(local*f.segs()+s+1), f.rank1(lo), s)
}

// segOver is segAt for the entry range [lo, hi) whose steps start at
// step slo — which segAt looks up, and a caller still assembling the
// frame knows.
func (f *Frame) segOver(lo, hi, slo int64, s int) cols {
	c := cols{
		pn:   f.node.view(lo, hi),
		sd:   StepDists{first: f.first, lo: lo, col: &f.steps, slo: slo, n: countBits(f.first, lo, hi)},
		by:   &f.by,
		perm: s,
	}
	if f.beta != nil {
		c.beta = f.beta[lo:hi:hi]
	}
	return c
}

// span returns the absolute entry range of local node v across all its
// segments.
func (f *Frame) span(local int) (lo, hi int64) {
	return f.offAt(local * f.segs()), f.offAt((local + 1) * f.segs())
}

// viewSketch constructs the kind's and flavor's view of local node v.
func (f *Frame) viewSketch(local int) Sketch {
	k, owner := f.p.K, f.owner(local)
	switch {
	case f.p.Kind == KindWeighted:
		return &WeightedADS{k: k, node: owner, scheme: f.p.Scheme, c: f.segAt(local, 0)}
	case f.p.Flavor == sketch.KMins:
		return &KMinsADS{k: k, node: owner, perms: f.segViews(local)}
	case f.p.Flavor == sketch.KPartition:
		return &KPartitionADS{k: k, node: owner, buckets: f.segViews(local)}
	default:
		return &ADS{k: k, node: owner, c: f.segAt(local, 0)}
	}
}

// segViews returns the per-segment column views of local node v.
func (f *Frame) segViews(local int) []cols {
	segs := make([]cols, f.segs())
	for s := range segs {
		segs[s] = f.segAt(local, s)
	}
	return segs
}

// slice returns the sub-frame of local nodes [lo, hi): a window on the
// offsets over the same shared columns.  No entry data is allocated or
// copied.
func (f *Frame) slice(lo, hi int) *Frame {
	return &Frame{
		p: f.p, n: hi - lo, base: f.base + int32(lo), total: f.total,
		off: f.off, off0: f.off0 + int64(lo*f.segs()),
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
		off:  makePackedColumn(int64(nodes*first.segs()+1), offsetWidth(total)),
		node: makePackedColumn(total, nodeWidth(nodes)),
		by:   first.by,
	}
	marks, step := make([]uint64, bitWords(total)), make([]float64, 0, steps)
	if first.p.Kind == KindWeighted {
		out.beta = make([]float64, total)
	}
	pos, seg := int64(0), int64(0)
	for _, f := range frames {
		flo, fhi := f.entryRange()
		out.node.copyFrom(pos, &f.node, flo, fhi-flo)
		copyBits(marks, pos, f.first, flo, fhi-flo)
		slo, shi := f.stepRange()
		step = f.steps.appendRaw(step, slo, shi)
		if out.beta != nil {
			copy(out.beta[pos:], f.beta[flo:fhi])
		}
		for i := 0; i < f.n*f.segs(); i++ {
			out.off.put(seg, uint64(pos+f.offAt(i)-flo))
			seg++
		}
		pos += fhi - flo
	}
	out.off.put(seg, uint64(pos))
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
// one reused buffer, through a direct-mapped (perm, node, β) → rank memo,
// so they pay a hash per distinct node rather than per entry and allocate
// nothing per node.  The zero value is ready to use, and serves one frame:
// the memo does not key on the ranker.
type rankScratch struct {
	memo *[rankMemoSlots]rankMemoSlot
	buf  []float64
	dbuf []float64 // the per-entry distances ranked expands
	nbuf []int32   // the per-entry nodes ranked unpacks
	segs []cols
}

type rankMemoSlot struct {
	key  uint64 // perm<<32 + node + 1: zero is empty
	beta float64
	rank float64
}

// grow returns the scratch buffer, resized to n ranks.
func (s *rankScratch) grow(n int) []float64 { return growFloats(&s.buf, n) }

// growFloats returns *buf resized to n, reallocating only when the
// capacity is short.
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// derive fills dst with the ranks by gives nodes under permutation perm
// (and the node weights betas, when non-nil), through the memo.
func (s *rankScratch) derive(dst []float64, by *ranker, perm int, nodes []int32, betas []float64) {
	if s.memo == nil {
		s.memo = new([rankMemoSlots]rankMemoSlot)
	}
	mix, hi := uint32(perm)*0x9e3779b1, uint64(perm)<<32+1
	for j, node := range nodes {
		var beta float64
		if betas != nil {
			beta = betas[j]
		}
		key := hi + uint64(uint32(node))
		m := &s.memo[(uint32(node)+mix)%rankMemoSlots]
		if m.key != key || m.beta != beta {
			*m = rankMemoSlot{key: key, beta: beta, rank: by.rank(perm, node, beta)}
		}
		dst[j] = m.rank
	}
}

// ranked returns the segment views of local node v with their ranks and
// per-entry nodes and distances filled in — ranks derived into s.buf,
// nodes unpacked into s.nbuf and distances expanded from the steps into
// s.dbuf — valid until the next call.  The views' pn and sd still alias
// the frame.
func (f *Frame) ranked(s *rankScratch, local int) []cols {
	segs := s.segs[:0]
	for i := 0; i < f.segs(); i++ {
		segs = append(segs, f.segAt(local, i))
	}
	return f.filled(s, segs)
}

// filled is ranked over views the caller has made: it keeps segs as the
// scratch's view list and fills in their ranks, nodes and distances.
func (f *Frame) filled(s *rankScratch, segs []cols) []cols {
	s.segs = segs
	n := 0
	for i := range segs {
		n += segs[i].pn.n
	}
	dbuf := growFloats(&s.dbuf, n)
	s.nbuf = slices.Grow(s.nbuf[:0], n)
	nbuf, buf := s.nbuf, s.grow(n)
	for i := range segs {
		c := &segs[i]
		from := len(nbuf)
		nbuf = c.pn.AppendTo(nbuf, 0, c.pn.n)
		c.node = nbuf[from:len(nbuf):len(nbuf)]
		c.dist, dbuf = dbuf[:c.len():c.len()], dbuf[c.len():]
		c.sd.expand(c.dist)
		c.rank, buf = buf[:c.len():c.len()], buf[c.len():]
		s.derive(c.rank, c.by, c.perm, c.node, c.beta)
	}
	return segs
}

// validate checks the structural invariants of local node v's sketch.
// given, when non-nil, is the caller-built entry list of every segment the
// node was frozen from: their Rank fields, which the frame did not keep,
// must be the ones the frame derives, so that a frame cannot disagree with
// its own seed.
func (f *Frame) validate(s *rankScratch, local int, given [][]Entry) error {
	return f.validateSegs(f.ranked(s, local), local, given)
}

// validateSegs is validate over local node v's filled views.
func (f *Frame) validateSegs(segs []cols, local int, given [][]Entry) error {
	k, owner := f.p.K, f.owner(local)
	for s, l := range given {
		for i, e := range l {
			if u := segs[s].node[i]; e.Node != u {
				return fmt.Errorf("core: ADS(%d) entry %d names node %d outside [0, %d)", owner, i, e.Node, f.total)
			}
			if r := segs[s].rank[i]; e.Rank != r {
				return fmt.Errorf("core: ADS(%d) segment %d entry %d (node %d) has rank %g, the set's seed derives %g (seed %d)", owner, s, i, e.Node, e.Rank, r, f.p.Seed)
			}
		}
	}
	// An ID is stored in the bits the largest of the set needs, which can
	// spell a larger one still.
	for _, c := range segs {
		for i, u := range c.node {
			if int(u) >= f.total {
				return fmt.Errorf("core: ADS(%d) entry %d names node %d outside [0, %d)", owner, i, u, f.total)
			}
		}
	}
	var err error
	switch {
	case f.p.Kind == KindWeighted:
		err = (&WeightedADS{k: k, node: owner, scheme: f.p.Scheme, c: segs[0]}).Validate()
	case f.p.Kind == KindApprox:
		err = validateApproxView(&ADS{k: k, node: owner, c: segs[0]})
	case f.p.Flavor == sketch.KMins:
		err = (&KMinsADS{k: k, node: owner, perms: segs}).Validate()
	case f.p.Flavor == sketch.KPartition:
		err = (&KPartitionADS{k: k, node: owner, buckets: segs}).Validate()
	default:
		err = (&ADS{k: k, node: owner, c: segs[0]}).Validate()
	}
	if err != nil {
		return err
	}
	// The entries are in canonical order; so must their code be — maximal
	// runs, hence strictly ascending steps — or equal entries would not
	// mean equal bytes.  Only a file can get this wrong.
	for _, c := range segs {
		for j := 0; j < c.sd.n; j++ {
			if d := c.sd.step(j); !(d >= 0) || j > 0 && d == c.sd.step(j-1) {
				return fmt.Errorf("core: ADS(%d) has a redundant or invalid distance step %g at %d", owner, d, j)
			}
		}
	}
	return nil
}

// Index builds the HIP query index of local node v.  A single-segment
// node's HIP entries are its entries, so the index views the frame's node
// column, step bits and steps and holds of its own one slice: a weight per
// entry — the ranks derived into it, then turned into weights in place —
// and a prefix sum per step.  A k-mins / k-partition node's
// entries are a merge of its segments, indexed standalone.  Every readout
// is bit-identical to NewHIPIndex over the node's view; callers cache the
// result (query.IndexCache).
func (f *Frame) Index(local int32) *HIPIndex {
	if f.segs() > 1 {
		return NewHIPIndex(f.viewSketch(int(local)))
	}
	c := f.segAt(int(local), 0)
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
