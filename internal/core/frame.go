package core

import (
	"fmt"
	"sync"

	"adsketch/internal/rank"
	"adsketch/internal/sketch"
)

// Frozen columnar sketch storage.  A built sketch set never mutates, so
// instead of one heap object (and one entry slice, and one lazily built
// query index) per node, every set owns a single Frame: an offsets array
// plus parallel entry columns shared by all of its sketches.  The sketch
// types (ADS, WeightedADS, KMinsADS, KPartitionADS) are lightweight views
// over column slices — constructing one allocates a small header, never
// entry data — and the per-node HIP query indexes live in one arena per
// frame, built on first use.  A million-node set is a handful of large
// allocations instead of millions of small ones, splitting a set into
// partitions is offset slicing, and the version-3 codec serializes the
// columns verbatim, so opening a prebuilt file is O(columns) work (and
// zero copies when mmapped).
//
// A frame holds (node, dist) pairs — and β for weighted sets — but no
// ranks: a rank is a pure function of the seed and the node (and of β,
// which travels with the entry), so it is derived when asked for.  The
// one exception is a frame opened from a file written before ranks were
// derived, which may not even record its seed: its stored rank column is
// viewed in place and used instead.  rank != nil is the only predicate.

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

func newRanker(kind uint32, o Options, scheme WeightScheme) ranker {
	r := ranker{src: o.Source()}
	switch kind {
	case kindWeighted:
		r.weighted, r.scheme = true, scheme
	case kindUniform:
		r.kmins = o.Flavor == sketch.KMins
		if o.BaseB > 1 {
			r.rounded, r.base = true, rank.NewBaseB(o.BaseB)
		}
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

// cols is one columnar entry list: the node/dist columns of a contiguous
// entry range, in canonical (distance, node ID) order.  A cols either
// views a frame's shared columns (frozen sketches) or owns private slices
// (standalone sketches built incrementally via Offer).  Its ranks are
// stored when rank is non-nil — standalone sketches, and the frames of
// files written before ranks were derived — and derived through by
// otherwise.
type cols struct {
	node []int32
	dist []float64
	rank []float64
	beta []float64 // weighted sketches: β per entry
	by   *ranker
	perm int // which permutation the list samples: its segment, for k-mins
}

func (c *cols) len() int { return len(c.node) }

// rankAt returns the rank of entry i.
func (c *cols) rankAt(i int) float64 {
	if c.rank != nil {
		return c.rank[i]
	}
	var b float64
	if c.beta != nil {
		b = c.beta[i]
	}
	return c.by.rank(c.perm, c.node[i], b)
}

// ranks returns the rank of every entry: the stored column, or a fresh
// slice of derived ones.
func (c *cols) ranks() []float64 {
	if c.rank != nil {
		return c.rank
	}
	out := make([]float64, len(c.node))
	for i := range out {
		out[i] = c.rankAt(i)
	}
	return out
}

// at returns entry i as a value.
func (c *cols) at(i int) Entry {
	return Entry{Node: c.node[i], Dist: c.dist[i], Rank: c.rankAt(i)}
}

// before reports whether entry i of c precedes entry j of d in the
// canonical order.
func (c *cols) before(i int, d *cols, j int) bool {
	if c.dist[i] != d.dist[j] {
		return c.dist[i] < d.dist[j]
	}
	return c.node[i] < d.node[j]
}

// push appends an entry.  Views into a frame arena are sliced with full
// capacity bounds, so pushing onto one reallocates instead of corrupting
// the shared columns; a view that was deriving its ranks stores them
// first, as the pushed one has to be.
func (c *cols) push(e Entry) {
	if len(c.node) > 0 {
		c.rank = c.ranks()
	}
	c.node = append(c.node, e.Node)
	c.dist = append(c.dist, e.Dist)
	c.rank = append(c.rank, e.Rank)
}

// entries materializes the columns as an entry slice.
func (c *cols) entries() []Entry {
	out := make([]Entry, len(c.node))
	for i := range out {
		out[i] = c.at(i)
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

// Frame is the frozen columnar storage of one sketch set: segs segments
// per node (1 for bottom-k/weighted/approximate, k for the per-permutation
// and per-bucket lists of k-mins and k-partition), described by an offsets
// array over shared entry columns.  Offsets are absolute positions into
// the columns, so slicing a frame to a node range (partitioning) is a
// re-slice of offsets — no entry moves.  base is the global ID of local
// node 0 (non-zero for partition frames).
type Frame struct {
	kind   uint32 // kindUniform, kindWeighted, kindApprox
	opts   Options
	scheme WeightScheme // weighted sets
	eps    float64      // approximate sets
	segs   int
	n      int
	base   int32
	off    []int64 // len n*segs+1, absolute entry positions
	node   []int32
	dist   []float64
	beta   []float64 // weighted sets: β per entry, parallel to the columns
	by     ranker    // derives the ranks
	rank   []float64 // non-nil only for a file written before ranks were derived: its stored ranks, used instead of by

	hipOnce sync.Once
	hip     *hipArena
}

// freezeFrame assembles per-segment entry lists (node-major: segment s of
// node v is lists[v*segs+s]) into one frame.  The entries' Rank fields are
// not kept: callers that did not draw them from opts themselves check
// them against the frame's (validate).
func freezeFrame(kind uint32, opts Options, scheme WeightScheme, eps float64, segs int, base int32, lists [][]Entry) *Frame {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	f := &Frame{
		kind: kind, opts: opts, scheme: scheme, eps: eps,
		segs: segs, n: len(lists) / segs, base: base,
		off:  make([]int64, len(lists)+1),
		node: make([]int32, total),
		dist: make([]float64, total),
		by:   newRanker(kind, opts, scheme),
	}
	pos := 0
	for i, l := range lists {
		f.off[i] = int64(pos)
		for _, e := range l {
			f.node[pos] = e.Node
			f.dist[pos] = e.Dist
			pos++
		}
	}
	f.off[len(lists)] = int64(pos)
	return f
}

// totalEntries returns the entry count of the frame's own node range
// (the columns may be shared with sibling partition frames).
func (f *Frame) totalEntries() int {
	return int(f.off[len(f.off)-1] - f.off[0])
}

// owner returns the global ID of local node v.
func (f *Frame) owner(local int) int32 { return f.base + int32(local) }

// segAt returns segment s of local node v as a column view.  The slices
// carry full capacity bounds so an (erroneous) append cannot overwrite a
// neighboring sketch.
func (f *Frame) segAt(local, s int) cols {
	lo := f.off[local*f.segs+s]
	hi := f.off[local*f.segs+s+1]
	c := cols{
		node: f.node[lo:hi:hi],
		dist: f.dist[lo:hi:hi],
		by:   &f.by,
		perm: s,
	}
	if f.rank != nil {
		c.rank = f.rank[lo:hi:hi]
	}
	if f.beta != nil {
		c.beta = f.beta[lo:hi:hi]
	}
	return c
}

// span returns the absolute entry range of local node v across all its
// segments.
func (f *Frame) span(local int) (lo, hi int64) {
	return f.off[local*f.segs], f.off[(local+1)*f.segs]
}

// viewSketch constructs the flavor-appropriate view of local node v.
func (f *Frame) viewSketch(local int) Sketch {
	if f.kind == kindWeighted {
		return f.viewWeighted(local)
	}
	switch f.opts.Flavor {
	case sketch.KMins:
		return &KMinsADS{k: f.opts.K, node: f.owner(local), perms: f.segViews(local)}
	case sketch.KPartition:
		return &KPartitionADS{k: f.opts.K, node: f.owner(local), buckets: f.segViews(local)}
	default:
		return f.viewADS(local)
	}
}

func (f *Frame) viewADS(local int) *ADS {
	return &ADS{k: f.opts.K, node: f.owner(local), c: f.segAt(local, 0)}
}

func (f *Frame) viewWeighted(local int) *WeightedADS {
	return &WeightedADS{k: f.opts.K, node: f.owner(local), scheme: f.scheme, c: f.segAt(local, 0)}
}

// segViews returns the per-segment column views of local node v.
func (f *Frame) segViews(local int) []cols {
	segs := make([]cols, f.segs)
	for s := range segs {
		segs[s] = f.segAt(local, s)
	}
	return segs
}

// slice returns the sub-frame of local nodes [lo, hi): re-sliced offsets
// over the same shared columns.  No entry data is allocated or copied.
func (f *Frame) slice(lo, hi int) *Frame {
	return &Frame{
		kind: f.kind, opts: f.opts, scheme: f.scheme, eps: f.eps,
		segs: f.segs, n: hi - lo, base: f.base + int32(lo),
		off:  f.off[lo*f.segs : hi*f.segs+1 : hi*f.segs+1],
		node: f.node, dist: f.dist, beta: f.beta, by: f.by, rank: f.rank,
	}
}

// mergeFrames concatenates frames (already validated to be a consistent,
// ordered split, all deriving their ranks or all storing them) into one
// whole frame with compact columns.
func mergeFrames(frames []*Frame) *Frame {
	first := frames[0]
	total, nodes := 0, 0
	for _, f := range frames {
		total += f.totalEntries()
		nodes += f.n
	}
	out := &Frame{
		kind: first.kind, opts: first.opts, scheme: first.scheme, eps: first.eps,
		segs: first.segs, n: nodes, base: 0,
		off:  make([]int64, nodes*first.segs+1),
		node: make([]int32, total),
		dist: make([]float64, total),
		by:   first.by,
	}
	if first.kind == kindWeighted {
		out.beta = make([]float64, total)
	}
	if first.rank != nil {
		out.rank = make([]float64, total)
	}
	pos, seg := int64(0), 0
	for _, f := range frames {
		flo, fhi := f.off[0], f.off[len(f.off)-1]
		copy(out.node[pos:], f.node[flo:fhi])
		copy(out.dist[pos:], f.dist[flo:fhi])
		if out.beta != nil {
			copy(out.beta[pos:], f.beta[flo:fhi])
		}
		if out.rank != nil {
			copy(out.rank[pos:], f.rank[flo:fhi])
		}
		for i := 0; i < f.n*f.segs; i++ {
			out.off[seg] = pos + (f.off[i] - flo)
			seg++
		}
		pos += fhi - flo
	}
	out.off[seg] = pos
	return out
}

// rankMemoSlots sizes the memo rankScratch derives through.  It is fixed —
// independent of the node count and of how many nodes a partition's
// entries name — so deriving costs a frame O(1) memory.  A sketch samples
// node j with probability ~k/π_vj, so the nodes that fill most entries
// are few and stay resident.
const rankMemoSlots = 1 << 14

// rankScratch serves the loops that read every rank of a frame (the HIP
// arena build, freeze-time validation, the version-1/2 codec): one node's
// ranks at a time, in one reused buffer, through a direct-mapped
// (perm, node, β) → rank memo, so they pay a hash per distinct node rather
// than per entry and allocate nothing per node.  The zero value is ready
// to use, and serves one frame: the memo does not key on the ranker.
type rankScratch struct {
	memo *[rankMemoSlots]rankMemoSlot
	buf  []float64
	segs []cols
}

type rankMemoSlot struct {
	key  uint64 // perm<<32 + node + 1: zero is empty
	beta float64
	rank float64
}

// grow returns the scratch buffer, resized to n ranks.
func (s *rankScratch) grow(n int) []float64 {
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	return s.buf[:n]
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

// ranked returns the segment views of local node v with their ranks
// filled in — views of the stored column where there is one, of s.buf
// otherwise — valid until the next call.
func (f *Frame) ranked(s *rankScratch, local int) []cols {
	segs := s.segs[:0]
	for i := 0; i < f.segs; i++ {
		segs = append(segs, f.segAt(local, i))
	}
	s.segs = segs
	if f.rank != nil {
		return segs
	}
	lo, hi := f.span(local)
	buf := s.grow(int(hi - lo))
	for i := range segs {
		c := &segs[i]
		c.rank, buf = buf[:c.len():c.len()], buf[c.len():]
		s.derive(c.rank, c.by, c.perm, c.node, c.beta)
	}
	return segs
}

// validate checks the structural invariants of local node v's sketch.
// given, when non-nil, is the caller-built entry list the node was frozen
// from: its Rank fields, which the frame did not keep, must be the ones
// the frame derives, so that a frame cannot disagree with its own seed.
func (f *Frame) validate(s *rankScratch, local int, given []Entry) error {
	segs := f.ranked(s, local)
	k, owner := f.opts.K, f.owner(local)
	for i, e := range given {
		if r := segs[0].rank[i]; e.Rank != r {
			return fmt.Errorf("core: ADS(%d) entry %d (node %d) has rank %g, the set's seed derives %g", owner, i, e.Node, e.Rank, r)
		}
	}
	switch {
	case f.kind == kindWeighted:
		return (&WeightedADS{k: k, node: owner, scheme: f.scheme, c: segs[0]}).Validate()
	case f.kind == kindApprox:
		return validateApproxView(&ADS{k: k, node: owner, c: segs[0]})
	case f.opts.Flavor == sketch.KMins:
		return (&KMinsADS{k: k, node: owner, perms: segs}).Validate()
	case f.opts.Flavor == sketch.KPartition:
		return (&KPartitionADS{k: k, node: owner, buckets: segs}).Validate()
	default:
		return (&ADS{k: k, node: owner, c: segs[0]}).Validate()
	}
}

// hipArena is a frame's columnar HIP query index: every node's index is a
// view over these shared columns, so serving a million nodes costs a
// handful of arena allocations instead of five slices per node.  It
// realizes the compression remark of the paper's Section 5 — per unique
// distance, the cumulative adjusted weight (plus the weight·distance and
// weight/distance sums the closeness and harmonic readouts need).
type hipArena struct {
	views []HIPIndex
	// HIP entries in canonical order.  For single-segment frames the
	// node/dist columns alias the frame's; for k-mins / k-partition they
	// hold the per-node cursor merge of the segments.
	hnode []int32
	hdist []float64
	hw    []float64
	// per-unique-distance prefix-sum columns
	udist []float64
	cum   []float64
	cumD  []float64
	cumH  []float64
}

// Index returns the columnar HIP query index of local node v, building
// the frame's shared index arena on first use.  The returned index is an
// immutable view, safe to share between goroutines.
func (f *Frame) Index(local int32) *HIPIndex {
	f.hipOnce.Do(f.buildHIP)
	return &f.hip.views[local]
}

// buildHIP fills the arena.  All accumulations scan entries in canonical
// order with the same operations as the per-sketch HIP estimators, so
// every readout is bit-identical to NewHIPIndex over the corresponding
// view.
func (f *Frame) buildHIP() {
	e := f.totalEntries()
	a := &hipArena{
		views: make([]HIPIndex, f.n),
		hw:    make([]float64, 0, e),
		udist: make([]float64, 0, e),
		cum:   make([]float64, 0, e),
		cumD:  make([]float64, 0, e),
		cumH:  make([]float64, 0, e),
	}
	single := f.segs == 1
	if !single {
		a.hnode = make([]int32, 0, e)
		a.hdist = make([]float64, 0, e)
	}
	h := newMaxHeap(f.opts.K)
	var ranks rankScratch
	for v := 0; v < f.n; v++ {
		hlo, ulo := len(a.hw), len(a.udist)
		segs := f.ranked(&ranks, v)
		if single {
			switch f.kind {
			case kindWeighted:
				a.hw = hipWeightsWeighted(segs[0].rank, segs[0].beta, f.scheme, f.opts.K, h, a.hw)
			default:
				a.hw = hipWeightsBottomK(segs[0].rank, f.opts.K, h, a.hw)
			}
		} else {
			emit := func(node int32, dist, w float64) {
				a.hnode = append(a.hnode, node)
				a.hdist = append(a.hdist, dist)
				a.hw = append(a.hw, w)
			}
			if f.opts.Flavor == sketch.KMins {
				hipMergeKMins(segs, emit)
			} else {
				hipMergeKPartition(segs, emit)
			}
		}
		// Prefix sums per unique distance, in canonical order.
		var hd []float64
		if single {
			lo, hi := f.span(v)
			hd = f.dist[lo:hi]
		} else {
			hd = a.hdist[hlo:]
		}
		hw := a.hw[hlo:]
		total, totalD, totalH := 0.0, 0.0, 0.0
		for i := 0; i < len(hd); {
			d := hd[i]
			for i < len(hd) && hd[i] == d {
				total += hw[i]
				totalD += hw[i] * hd[i]
				totalH += hw[i] * KernelHarmonic(hd[i])
				i++
			}
			a.udist = append(a.udist, d)
			a.cum = append(a.cum, total)
			a.cumD = append(a.cumD, totalD)
			a.cumH = append(a.cumH, totalH)
		}
		a.views[v] = HIPIndex{
			ew:    a.hw[hlo:len(a.hw):len(a.hw)],
			dists: a.udist[ulo:len(a.udist):len(a.udist)],
			cum:   a.cum[ulo:len(a.cum):len(a.cum)],
			cumD:  a.cumD[ulo:len(a.cumD):len(a.cumD)],
			cumH:  a.cumH[ulo:len(a.cumH):len(a.cumH)],
		}
		if single {
			lo, hi := f.span(v)
			a.views[v].enode = f.node[lo:hi:hi]
			a.views[v].edist = f.dist[lo:hi:hi]
		} else {
			a.views[v].enode = a.hnode[hlo:len(a.hnode):len(a.hnode)]
			a.views[v].edist = a.hdist[hlo:len(a.hdist):len(a.hdist)]
		}
	}
	f.hip = a
}

// hipWeightsBottomK appends the HIP adjusted weights of a bottom-k entry
// list with the given ranks (Lemma 5.1: 1/τ with τ the k-th smallest
// preceding rank) to out.  h is caller-provided scratch, reset before use.
func hipWeightsBottomK(ranks []float64, k int, h *maxHeap, out []float64) []float64 {
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
// biased rank) to out.
func hipWeightsWeighted(ranks, beta []float64, scheme WeightScheme, k int, h *maxHeap, out []float64) []float64 {
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
