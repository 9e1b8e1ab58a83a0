package core

import (
	"fmt"
	"maps"
	"slices"
)

// FreezeBottomK assembles externally maintained per-node entry lists into a
// frozen bottom-k sketch set.  lists[v] must hold node v's entries in
// canonical (distance, node ID) order, satisfy the bottom-k inclusion
// condition, and carry the ranks o derives (a frame keeps no ranks, so one
// that o would not reproduce is refused).  It is FreezePartition for the
// one partition of a whole uniform set, so the frame is BuildSet's, and a
// frozen set serializes bit-for-bit like a full rebuild that yields the
// same entries.
func FreezeBottomK(o Options, lists [][]Entry) (*Set, error) {
	p, err := FreezePartition(Params{Kind: KindUniform, Options: o}, 0, 1, len(lists), lists, nil)
	if err != nil {
		return nil, err
	}
	return &Set{frame: p.frame}, nil
}

// FreezeBottomKOver is FreezeBottomK for a set that differs from an
// already frozen one in a few sketches: the result holds n >= base's
// nodes, node v's entries being changed[v] where present and base's
// otherwise (every node base lacks must be present).  Only the changed
// lists are checked and validated — base's were when it was frozen — and
// an unchanged list is block-copied from base's stream, one bit range, so
// the cost follows the change, not the set; the exceptions are a freeze
// whose counts or distances code a list's counts and steps otherwise than
// base's do, which codes the unchanged ones again around their copied node
// codes, and a freeze that grows the node count, which puts new nodes into
// the rank order every list is coded in and so codes every unchanged
// list's moved positions again — on every core (Frame.codeNodes).  The
// result is the set FreezeBottomK would return for the same lists.
func FreezeBottomKOver(base *Set, n int, changed map[int32][]Entry) (*Set, error) {
	bf := base.frame
	if bf.p.Kind != KindUniform {
		return nil, fmt.Errorf("core: FreezeBottomKOver requires a uniform set, got a %v one", bf.p.Kind)
	}
	if bf.base != 0 || n < bf.n {
		return nil, fmt.Errorf("core: FreezeBottomKOver: base must be a whole set of at most %d nodes, got nodes [%d, %d)", n, bf.base, int(bf.base)+bf.n)
	}
	for v, l := range changed {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("core: FreezeBottomKOver: changed node %d outside [0, %d)", v, n)
		}
		if len(l) == 0 {
			return nil, fmt.Errorf("core: FreezeBottomKOver: node %d has no entries (every node holds itself at distance 0)", v)
		}
	}
	// The lists' counts and steps, which the result's codec is of: the
	// changed lists' and, between them, base's.
	entries := int64(0)
	var raw []float64
	for v := range n {
		if l, ok := changed[int32(v)]; ok {
			entries += int64(len(l))
			for j := range l {
				if isStep(l, j) {
					raw = append(raw, l[j].Dist)
				}
			}
			continue
		}
		if v >= bf.n {
			return nil, fmt.Errorf("core: FreezeBottomKOver: node %d has no entries (every node holds itself at distance 0)", v)
		}
		l := bf.listAt(v)
		entries += int64(l.nodes.n)
		raw = l.sd.appendSteps(raw)
	}
	// The rank order of n nodes: base's while n is its count.  A larger
	// count puts the new nodes into it, which moves base's positions
	// without reordering them: a kept list's runs are read as positions and
	// moved (shift), still ascending.
	order := bf.node.order
	var shift []int32
	if n != bf.total {
		order = newRankOrder(bf.p, n)
		at := order.positions()
		shift = make([]int32, bf.total)
		for p, v := range bf.node.order.nodes() {
			shift[p] = at[v]
		}
	}
	f := newFrame(bf.p, 0, n, n, entries, raw, order)
	same := bf.node.lc.same(&f.node.lc)
	workers := 1 // copies are cheap: only a recode takes every core
	if shift != nil {
		workers = 0
	}
	// The codes take about the base's bits an entry, which a sixteenth more
	// room covers.
	bits := bf.nodeBits() * entries / max(bf.entries, 1)
	err := f.codeNodes(order.positions(), bits+bits/16, workers, func(wr *nodeWriter, v int) {
		switch l, ok := changed[int32(v)]; {
		case ok:
			wr.entryList(int32(v), l, nil)
		case shift != nil:
			bl := bf.listAt(v)
			wr.list(int32(v), bl.nodes.n, bl.nodes.steps)
			r := bl.sd.reader()
			for range bl.nodes.steps {
				wr.step(r.next())
			}
			wr.recode(bl.nodes, shift)
		default:
			wr.copyList(bf, v, same)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("core: FreezeBottomKOver: %w", err)
	}
	nodes := slices.Sorted(maps.Keys(changed))
	var ranks rankScratch
	for _, v := range nodes {
		c, p := f.colsOver(int(v))
		view, _ := ranks.filled(c, p)
		if err := f.validateCols(view, int(v), changed[v]); err != nil {
			return nil, fmt.Errorf("core: FreezeBottomKOver: %w", err)
		}
	}
	return &Set{frame: f}, nil
}
