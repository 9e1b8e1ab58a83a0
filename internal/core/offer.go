package core

import (
	"slices"
	"sort"
)

// OfferKernel is the update rule of Algorithm 2 (LOCALUPDATES, Section 3)
// for entries that arrive out of canonical order — insert (x, a) iff fewer
// than k canonically-earlier entries have a smaller rank, then clean up the
// entries after it whose own test the insertion broke — applied to a sorted
// run of candidates at once (Merge), and the relaxed (1+ε) variant applied
// to one (OfferApprox).  The ingest maintainer and the distributed build
// workers call it (and lab.BuildApprox, the in-process approximate rounds);
// each owns one kernel, whose scratch is reused across calls, and its own
// lists.
type OfferKernel struct {
	h     kSmallest
	nodes []int32   // the batch's distinct nodes, ascending
	state []uint8   // parallel to nodes: unseen, dropped or kept so far
	out   []Entry   // the merged list, before it is copied back
	outB  []float64 // and its weights
	acc   []int     // the positions in the batch of the entries kept
	// Examined counts the entries Merge and OfferApprox have read, list
	// and candidate alike: the kernel's work, whatever the batches.
	Examined int64
}

// The states of a batch node in a merge.
const (
	unseen uint8 = iota
	dropped
	kept
)

// NewOfferKernel returns the kernel for sketch parameter k.
func NewOfferKernel(k int) OfferKernel {
	return OfferKernel{h: kSmallest{k: k, v: make([]float64, 0, k)}}
}

// Merge merges batch, candidates in canonical order that may repeat a node
// and name or tie list's nodes, into list, a canonical list of distinct
// nodes, in one pass in canonical order: an entry is kept iff no entry for
// its node came before it and its rank is below the k-th smallest rank kept
// so far (Lemma 5.1's inclusion threshold; an entry the test drops has k
// smaller ranks before it, so it changes nothing after it either).  The
// result is bit for bit the list that offering batch's entries one by one
// in canonical order would leave.
//
// betas, when non-nil, is a column parallel to list (the Section 9 node
// weights) that is kept parallel, batchBetas holding the batch's; both
// are rewritten in place and grown by append.  accepted is the positions
// in batch of the entries kept, in order — the ones to propagate — valid
// until the next call; evicted counts the list's nodes the merge dropped.
// A batch that has nothing accepted changes nothing, and the merge reads
// the list no further than the batch's last entry.
func (o *OfferKernel) Merge(list []Entry, betas []float64, batch []Entry, batchBetas []float64) (_ []Entry, _ []float64, accepted []int, evicted int) {
	o.h.reset()
	o.out, o.outB, o.acc = o.out[:0], o.outB[:0], o.acc[:0]
	o.index(batch)
	for i, j := 0, 0; i < len(list) || j < len(batch); {
		if j == len(batch) && len(o.acc) == 0 {
			return list, betas, o.acc, 0
		}
		e, beta, from := Entry{}, 0.0, -1 // from: e's position in batch, or -1
		if j < len(batch) && (i == len(list) || batch[j].before(list[i])) {
			e, from = batch[j], j
			if betas != nil {
				beta = batchBetas[j]
			}
			j++
		} else {
			e = list[i]
			if betas != nil {
				beta = betas[i]
			}
			i++
		}
		o.Examined++
		keep, superseded := o.admit(e.Node, e.Rank)
		switch {
		case keep:
			o.out = append(o.out, e)
			o.outB = append(o.outB, beta)
			if from >= 0 {
				o.acc = append(o.acc, from)
			}
		case from < 0 && !superseded:
			evicted++
		}
	}
	list = append(list[:0], o.out...)
	if betas != nil {
		betas = append(betas[:0], o.outB...)
	}
	return list, betas, o.acc, evicted
}

// index records batch's distinct nodes, all unseen.
func (o *OfferKernel) index(batch []Entry) {
	o.nodes = o.nodes[:0]
	for _, e := range batch {
		o.nodes = append(o.nodes, e.Node)
	}
	slices.Sort(o.nodes)
	o.nodes = slices.Compact(o.nodes)
	o.state = slices.Grow(o.state[:0], len(o.nodes))[:len(o.nodes)]
	clear(o.state)
}

// admit decides the entry for node, of rank r, that a merge reads next: it
// is kept iff no entry for node has been decided and r is below the
// threshold.  superseded reports an entry for node kept before it.
func (o *OfferKernel) admit(node int32, r float64) (keep, superseded bool) {
	var st *uint8
	if at, ok := slices.BinarySearch(o.nodes, node); ok {
		st = &o.state[at]
		if *st != unseen {
			return false, *st == kept
		}
		*st = dropped
	}
	if o.h.size() == o.h.k && r >= o.h.max() {
		return false, false
	}
	o.h.offer(r)
	if st != nil {
		*st = kept
	}
	return true, false
}

// OfferApprox is the (1+ε) rule of Section 3: an existing entry for e's
// node within distance e.Dist·(1+ε) rejects e, the threshold counts only
// entries within that distance, and nothing is cleaned up.  A farther entry
// for the node is dropped even when e then fails the threshold, which that
// entry fails with it.  accepted tells the caller to propagate e; the
// returned list replaces the caller's either way.  The kind has no
// order-free fixpoint, so candidates are offered one at a time.
func (o *OfferKernel) OfferApprox(list []Entry, e Entry, eps float64) (_ []Entry, accepted bool) {
	limit := e.Dist * (1 + eps)
	for i, ent := range list {
		o.Examined++
		if ent.Node == e.Node {
			if ent.Dist <= limit {
				return list, false
			}
			list = slices.Delete(list, i, i+1)
			break
		}
	}
	o.h.reset()
	for _, ent := range list {
		if ent.Dist > limit {
			break
		}
		o.Examined++
		o.h.offer(ent.Rank)
	}
	if o.h.size() == o.h.k && e.Rank >= o.h.max() {
		return list, false
	}
	pos := sort.Search(len(list), func(i int) bool { return !list[i].before(e) })
	return slices.Insert(list, pos, e), true
}
