package core

import (
	"cmp"
	"fmt"
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
// the entries of unchanged nodes are block-copied from base's columns —
// offsets, step range, and each node's code range — so the cost
// follows the change, not the set; the exceptions are a freeze that grows
// the node count, which puts new nodes into the rank order every list is
// coded in and so codes every unchanged list's moved positions again —
// on every core (Frame.codeNodes) — and a freeze whose steps take other
// distances than base's, which codes the unchanged steps again
// (stepsOver).  The result is the set FreezeBottomK would return for the
// same lists.
func FreezeBottomKOver(base *Set, n int, changed map[int32][]Entry) (*Set, error) {
	bf := base.frame
	if bf.p.Kind != KindUniform {
		return nil, fmt.Errorf("core: FreezeBottomKOver requires a uniform set, got a %v one", bf.p.Kind)
	}
	if bf.base != 0 || n < bf.n {
		return nil, fmt.Errorf("core: FreezeBottomKOver: base must be a whole set of at most %d nodes, got nodes [%d, %d)", n, bf.base, int(bf.base)+bf.n)
	}
	nodes := make([]int32, 0, len(changed))
	total := bf.totalEntries()
	for v, l := range changed {
		if v < 0 || int(v) >= n {
			return nil, fmt.Errorf("core: FreezeBottomKOver: changed node %d outside [0, %d)", v, n)
		}
		if len(l) == 0 {
			return nil, fmt.Errorf("core: FreezeBottomKOver: node %d has no entries (every node holds itself at distance 0)", v)
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
		p: bf.p, n: n, total: n,
		off: makePackedColumn(int64(n+1), offsetWidth(int64(total))),
		by:  bf.by,
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
	// The changed lists' steps are collected raw, and the step column put
	// together once they are all known (stepsOver): its dictionary depends
	// on every one of them.
	var raw []float64
	fresh := make([]int64, len(nodes)) // fresh[i]: the steps in raw after nodes[i]'s list
	soff := make([]uint64, n+1)        // packed once the step count is known
	pos, step := int64(0), int64(0)
	// keep copies the offsets and step offsets of base nodes [from, to),
	// none of them changed.
	keep := func(from, to int) error {
		if from >= to {
			return nil
		}
		if to > bf.n {
			return fmt.Errorf("core: FreezeBottomKOver: node %d has no entries (every node holds itself at distance 0)", max(from, bf.n))
		}
		lo, slo := bf.offAt(from), bf.stepAt(from)
		for v := from; v < to; v++ {
			f.off.put(int64(v), uint64(pos+bf.offAt(v)-lo))
			soff[v] = uint64(step + bf.stepAt(v) - slo)
		}
		pos, step = pos+bf.offAt(to)-lo, step+bf.stepAt(to)-slo
		return nil
	}
	next := 0
	for i, v := range nodes {
		if err := keep(next, int(v)); err != nil {
			return nil, err
		}
		f.off.put(int64(v), uint64(pos))
		soff[v] = uint64(step)
		l := changed[v]
		for j, e := range l {
			if isStep(l, j) {
				raw = append(raw, e.Dist)
				step++
			}
		}
		pos += int64(len(l))
		fresh[i], next = int64(len(raw)), int(v)+1
	}
	if err := keep(next, n); err != nil {
		return nil, err
	}
	f.off.put(int64(n), uint64(pos))
	soff[n] = uint64(step)
	f.soff = packOffsets(soff)
	workers := 1 // copies are cheap: only a recode takes every core
	if shift != nil {
		workers = 0
	}
	// The codes take about the base's bits an entry, which a sixteenth more
	// room covers.
	bits := bf.nodeBits() * int64(total) / int64(max(bf.totalEntries(), 1))
	err := f.codeNodes(order, bits+bits/16, workers, func(wr *nodeWriter, v int) {
		switch _, ok := slices.BinarySearch(nodes, int32(v)); {
		case ok:
			l := changed[int32(v)]
			for j, e := range l {
				wr.add(e.Node, isStep(l, j))
			}
		case shift != nil:
			wr.recode(bf.nodesAt(v), shift)
		default:
			wr.copy(bf.node.words, bf.bitAt(v), bf.bitAt(v+1)-bf.bitAt(v))
		}
	})
	if err != nil {
		return nil, fmt.Errorf("core: FreezeBottomKOver: %w", err)
	}
	f.steps = stepsOver(bf, nodes, raw, fresh)
	var ranks rankScratch
	for _, v := range nodes {
		view, _ := ranks.filled(f.colsOver(int(v)), f.nodesAt(int(v)))
		if err := f.validateCols(view, int(v), changed[v]); err != nil {
			return nil, fmt.Errorf("core: FreezeBottomKOver: %w", err)
		}
	}
	return &Set{frame: f}, nil
}

// stepsOver assembles the step column of the frame FreezeBottomKOver makes
// of bf with the sketches of nodes (ascending) replaced or added: steps
// holds the new lists' steps back to back, those of nodes[i] ending at
// fresh[i], and the steps of the nodes between are bf's.  The result has
// to be the one encoding of its steps, so its dictionary is worked out
// first, from the base's use counts less the steps of the sketches
// replaced plus the new ones.  While a window introduces no distance and
// retires the last use of none the dictionary is the base's and the kept
// codes are copied as bit ranges; otherwise every kept step is looked up
// again.  Over a raw base the distinct values are not known, only a lower
// bound on their count: while that bound rules a dictionary out the
// result is raw too, and otherwise they are counted.
func stepsOver(bf *Frame, nodes []int32, steps []float64, fresh []int64) stepColumn {
	bs := &bf.steps
	// kept returns the range of bf's steps of base nodes [from, to).
	kept := func(from, to int) (lo, hi int64) {
		return bf.stepAt(min(from, bf.n)), bf.stepAt(min(to, bf.n))
	}
	slo, shi := bf.stepRange()
	total, removed := shi-slo+int64(len(steps)), int64(0)
	var uses []int64
	if bs.dict != nil {
		uses = bs.usesIn(slo, shi)
	}
	for _, v := range nodes {
		lo, hi := kept(int(v), int(v)+1)
		removed += hi - lo
		for j := lo; j < hi && uses != nil; j++ {
			uses[bs.codeAt(j)]--
		}
	}
	total -= removed
	var out stepColumn
	same, recount := false, false
	if uses == nil {
		// Each step removed retires at most one value.
		dlo := max(bs.dlo-removed, 0)
		out, recount = newStepColumn(nil, total), dlo == 0 || dictWins(dlo, total)
		out.dlo = dlo
	} else {
		added := map[float64]int64{} // the new steps at distances the base's dictionary lacks
		for _, d := range steps {
			if c, ok := slices.BinarySearch(bs.dict, d); ok {
				uses[c]++
			} else {
				added[d]++
			}
		}
		type value struct {
			d    float64
			uses int64
		}
		values := make([]value, 0, len(uses)+len(added))
		same = len(added) == 0
		for c, u := range uses {
			if u > 0 {
				values = append(values, value{bs.dict[c], u})
			} else {
				same = false
			}
		}
		for d, u := range added {
			values = append(values, value{d, u})
		}
		slices.SortFunc(values, func(a, b value) int { return cmp.Compare(a.d, b.d) })
		if dictWins(int64(len(values)), total) {
			dict := make([]float64, len(values))
			out = newStepColumn(dict, total)
			out.uses = make([]int64, len(values))
			for c, x := range values {
				dict[c], out.uses[c] = x.d, x.uses
			}
		} else {
			same = false
			out = newStepColumn(nil, total)
			out.dlo = int64(len(values))
		}
	}
	next, done := 0, int64(0)
	for i, v := range nodes {
		lo, hi := kept(next, int(v))
		out.copy(bs, same, lo, hi)
		for _, d := range steps[done:fresh[i]] {
			out.add(d)
		}
		next, done = int(v)+1, fresh[i]
	}
	lo, hi := kept(next, bf.n)
	out.copy(bs, same, lo, hi)
	if recount {
		return makeStepColumn(out.raw)
	}
	return out
}
