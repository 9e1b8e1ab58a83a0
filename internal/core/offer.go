package core

import (
	"slices"
	"sort"
)

// OfferKernel is the update rule of Algorithm 2 (LOCALUPDATES, Section 3)
// for entries that arrive out of canonical order: insert (x, a) iff fewer
// than k canonically-earlier entries have a smaller rank, then clean up the
// entries after it whose own test the insertion broke — and the relaxed
// (1+ε) variant.  The ingest maintainer and the distributed build workers
// call it (and lab.BuildApprox, the in-process approximate rounds); each
// owns one kernel, whose scratch slots are reused across offers, and its
// own lists.
type OfferKernel struct {
	h kSmallest
}

// NewOfferKernel returns the kernel for sketch parameter k.
func NewOfferKernel(k int) OfferKernel {
	return OfferKernel{h: kSmallest{k: k, v: make([]float64, 0, k)}}
}

// Reset starts the scan of a new offer.  Callers that walk a
// representation of their own (ingest's packed base columns) call Reset,
// Witness for every entry before the candidate, then Admits and Apply;
// everyone else calls Scan or Offer.
func (o *OfferKernel) Reset() { o.h.reset() }

// Witness records the rank of an entry that canonically precedes the
// candidate; the k smallest are the inclusion threshold of Lemma 5.1.
func (o *OfferKernel) Witness(rank float64) { o.h.offer(rank) }

// Admits reports whether rank is strictly below the k-th smallest rank
// witnessed so far.
func (o *OfferKernel) Admits(rank float64) bool {
	return o.h.size() < o.h.k || rank < o.h.max()
}

// Scan finds, in one pass over a canonical list, the insertion position of
// e and an existing entry for e's node (old, -1 when there is none).  Such
// an entry can only sit at or after pos: were it before, its distance would
// be no larger and e no improvement.  ok is false when e is no improvement
// or k smaller ranks precede it — and then e fails at every node upstream
// too (its k witnesses shift with it), so the caller stops propagating.
func (o *OfferKernel) Scan(list []Entry, e Entry) (pos, old int, ok bool) {
	o.h.reset()
	pos, old = -1, -1
	for i, ent := range list {
		if ent.Node == e.Node {
			if ent.Dist <= e.Dist {
				return 0, 0, false
			}
			old = i
		}
		if pos < 0 {
			if ent.before(e) {
				o.h.offer(ent.Rank)
			} else {
				pos = i
			}
		}
		if pos >= 0 && old >= 0 {
			break
		}
	}
	if pos < 0 {
		pos = len(list)
	}
	return pos, old, o.Admits(e.Rank)
}

// Apply inserts an admitted e at pos, drops the superseded entry at old
// (>= pos, so the deletion never shifts pos) and continues the threshold
// scan past the insertion, dropping every later entry whose rank stopped
// winning; it returns the list and how many entries that evicted.  betas,
// when non-nil, is a column parallel to list (the Section 9 node weights)
// that is kept parallel, with beta as e's value.  Both slices are edited in
// place and grown by append.
func (o *OfferKernel) Apply(list []Entry, betas []float64, pos, old int, e Entry, beta float64) ([]Entry, []float64, int) {
	if old >= 0 {
		list = slices.Delete(list, old, old+1)
	}
	list = slices.Insert(list, pos, e)
	if betas != nil {
		if old >= 0 {
			betas = slices.Delete(betas, old, old+1)
		}
		betas = slices.Insert(betas, pos, beta)
	}
	o.h.offer(e.Rank)
	keep := pos + 1
	for i := keep; i < len(list); i++ {
		if !o.Admits(list[i].Rank) {
			continue
		}
		o.h.offer(list[i].Rank)
		list[keep] = list[i]
		if betas != nil {
			betas[keep] = betas[i]
		}
		keep++
	}
	evicted := len(list) - keep
	if betas != nil {
		betas = betas[:keep]
	}
	return list[:keep], betas, evicted
}

// Offer is Scan then Apply: the whole exact rule over a plain list.
// changed is false, and nothing is touched, when e is rejected.
func (o *OfferKernel) Offer(list []Entry, betas []float64, e Entry, beta float64) (_ []Entry, _ []float64, evicted int, changed bool) {
	pos, old, ok := o.Scan(list, e)
	if !ok {
		return list, betas, 0, false
	}
	list, betas, evicted = o.Apply(list, betas, pos, old, e, beta)
	return list, betas, evicted, true
}

// OfferApprox is the (1+ε) rule of Section 3: an existing entry for e's
// node within distance e.Dist·(1+ε) rejects e, the threshold counts only
// entries within that distance, and nothing is cleaned up.  A farther entry
// for the node is dropped even when e then fails the threshold, which that
// entry fails with it.  accepted tells the caller to propagate e; the
// returned list replaces the caller's either way.
func (o *OfferKernel) OfferApprox(list []Entry, e Entry, eps float64) (_ []Entry, accepted bool) {
	limit := e.Dist * (1 + eps)
	for i, ent := range list {
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
		o.h.offer(ent.Rank)
	}
	if !o.Admits(e.Rank) {
		return list, false
	}
	pos := sort.Search(len(list), func(i int) bool { return !list[i].before(e) })
	return slices.Insert(list, pos, e), true
}
