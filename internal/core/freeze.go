package core

import (
	"fmt"
	"slices"

	"adsketch/internal/sketch"
)

// FreezeBottomK assembles externally maintained per-node entry lists into a
// frozen bottom-k sketch set.  lists[v] must hold node v's entries in
// canonical (distance, node ID) order, satisfy the bottom-k inclusion
// condition, and carry the ranks o derives (a frame keeps no ranks, so one
// that o would not reproduce is refused).  The frame layout is identical
// to BuildSet's, so a frozen set serializes (WriteSketchSetV3) bit-for-bit
// like a full rebuild that yields the same entries.
//
// Only the bottom-k flavor has a single-segment frame that this raw
// assembly can produce; other flavors return an error.
func FreezeBottomK(o Options, lists [][]Entry) (*Set, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	if o.Flavor != sketch.BottomK {
		return nil, fmt.Errorf("core: FreezeBottomK requires the bottom-k flavor, got %v", o.Flavor)
	}
	f := freezeWhole(kindUniform, o, 0, 0, 1, lists)
	if err := f.validateFrozen("FreezeBottomK", lists); err != nil {
		return nil, err
	}
	return &Set{frame: f}, nil
}

// validateFrozen checks every sketch of a single-segment frame just frozen
// from caller-built lists: non-empty, structurally valid, and carrying the
// ranks the frame derives.
func (f *Frame) validateFrozen(op string, lists [][]Entry) error {
	var ranks rankScratch
	for v, l := range lists {
		if len(l) == 0 {
			return fmt.Errorf("core: %s: node %d has no entries (every node holds itself at distance 0)", op, f.owner(v))
		}
		if err := f.validate(&ranks, v, l); err != nil {
			return fmt.Errorf("core: %s: %w", op, err)
		}
	}
	return nil
}

// FreezeBottomKOver is FreezeBottomK for a set that differs from an
// already frozen one in a few sketches: the result holds n >= base's
// nodes, node v's entries being changed[v] where present and base's
// otherwise (every node base lacks must be present).  Only the changed
// lists are checked and validated — base's were when it was frozen — and
// the entries of unchanged nodes are block-copied from base's columns —
// node-bit range, step-bit range, step range — contiguous nodes in one
// copy, so the cost follows the change, not the set; the one exception is
// a freeze whose n needs a bit more per ID than base's, which re-packs the
// unchanged IDs once.  The result is the set FreezeBottomK would return
// for the same lists.
func FreezeBottomKOver(base *Set, n int, changed map[int32][]Entry) (*Set, error) {
	bf := base.frame
	if bf.opts.Flavor != sketch.BottomK {
		return nil, fmt.Errorf("core: FreezeBottomKOver requires the bottom-k flavor, got %v", bf.opts.Flavor)
	}
	if bf.base != 0 || n < bf.n {
		return nil, fmt.Errorf("core: FreezeBottomKOver: base must be a whole set of at most %d nodes, got nodes [%d, %d)", n, bf.base, int(bf.base)+bf.n)
	}
	if bf.rank != nil {
		// A base from a file written before ranks were derived: nothing has
		// checked its stored ranks against its seed, so every list is.
		lists := make([][]Entry, n)
		for v := range lists {
			if l, ok := changed[int32(v)]; ok {
				lists[v] = l
			} else if v < bf.n {
				c := bf.segAt(v, 0)
				lists[v] = c.entries()
			}
		}
		return FreezeBottomK(bf.opts, lists)
	}
	nodes := make([]int32, 0, len(changed))
	total := bf.totalEntries()
	for v, l := range changed {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("core: FreezeBottomKOver: changed node %d outside [0, %d)", v, n)
		}
		if int(v) < bf.n {
			lo, hi := bf.span(int(v))
			total -= int(hi - lo)
		}
		total += len(l)
		nodes = append(nodes, v)
	}
	slices.Sort(nodes)
	f := &Frame{
		kind: kindUniform, opts: bf.opts, segs: 1, n: n, total: n,
		off:  make([]int64, n+1),
		node: makeNodeColumn(int64(total), nodeWidth(n)),
		by:   bf.by,
	}
	// The step column starts at the base's size and grows by append: an
	// exact count would cost a pass over every changed list, and a few
	// changed sketches barely move it.
	slo, shi := bf.stepRange()
	w := newStepWriter(total, int(shi-slo))
	f.first = w.first
	pos := int64(0)
	// keep copies base nodes [from, to), none of them changed.
	keep := func(from, to int) error {
		if from >= to {
			return nil
		}
		if to > bf.n {
			return fmt.Errorf("core: FreezeBottomKOver: node %d has no entries (every node holds itself at distance 0)", max(from, bf.n))
		}
		lo, hi := bf.off[from], bf.off[to]
		f.node.copyFrom(pos, &bf.node, lo, hi-lo)
		copyBits(w.first, pos, bf.first, lo, hi-lo)
		w.step = append(w.step, bf.step[bf.rank1(lo):bf.rank1(hi)]...)
		for v := from; v < to; v++ {
			f.off[v] = pos + bf.off[v] - lo
		}
		pos += hi - lo
		return nil
	}
	var ranks rankScratch
	next := 0
	for _, v := range nodes {
		if err := keep(next, int(v)); err != nil {
			return nil, err
		}
		l := changed[v]
		if len(l) == 0 {
			return nil, fmt.Errorf("core: FreezeBottomKOver: node %d has no entries (every node holds itself at distance 0)", v)
		}
		start, steps := pos, int64(len(w.step))
		f.off[v], f.off[v+1] = pos, pos+int64(len(l))
		w.segment()
		for _, e := range l {
			f.node.put(pos, e.Node)
			w.add(pos, e.Dist)
			pos++
		}
		// Checked while the list is still in cache, through a view of what
		// was just written: the frame cannot look its steps up until it is
		// whole.
		f.step = w.step
		view := f.filled(&ranks, append(ranks.segs[:0], f.segOver(start, pos, steps, 0)))
		if err := f.validateSegs(view, int(v), l); err != nil {
			return nil, fmt.Errorf("core: FreezeBottomKOver: %w", err)
		}
		next = int(v) + 1
	}
	if err := keep(next, n); err != nil {
		return nil, err
	}
	f.off[n] = pos
	f.setSteps(w.first, w.step)
	return &Set{frame: f}, nil
}
