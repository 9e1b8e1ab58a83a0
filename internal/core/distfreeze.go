package core

import "fmt"

// Partition-local freezing: a distributed build worker that owns the
// node range [i·total/P, (i+1)·total/P) assembles its finished per-node
// entry lists directly into a partition *Set, without the full set ever
// existing in one process.  FreezePartition produces partitions whose
// serialization is byte-identical to splitting a whole-set build of the
// same entries — writeFrameV3 codes a slice's sketches under its own
// counts and dictionary (Frame.own) and headerOf takes the envelope from
// the set's place in the split, so a compact worker-local frame and a
// SplitSketchSet slice of the full frame render the same bytes.

// FreezePartition assembles one partition of a set of parameters p from its
// per-node entry lists — lists[i] belongs to global node lo+i, in canonical
// order, satisfying the kind's inclusion condition, with the ranks p
// derives — into a partition *Set.  For a weighted set betas runs parallel
// to lists: betas[i][j] is the node weight β of entry lists[i][j].Node
// (each entry's weight travels with it, so a worker never needs the global
// weight vector); other kinds ignore it.  The relaxed acceptance rule of an
// approximate set means its lists need not satisfy the strict inclusion
// condition: they are checked for what the (1+ε) rule guarantees
// (validateApproxView).  Serializing the result yields exactly the bytes of
// the corresponding SplitSketchSet slice of a whole-set build producing the
// same entries.
func FreezePartition(p Params, index, count, total int, lists [][]Entry, betas [][]float64) (*Set, error) {
	lo, _, err := PartRange(index, count, total)
	if err != nil {
		return nil, fmt.Errorf("core: FreezePartition: %w", err)
	}
	var beta []float64
	if p.Kind == KindWeighted {
		if len(betas) != len(lists) {
			return nil, fmt.Errorf("core: FreezePartition: %d beta lists for %d entry lists", len(betas), len(lists))
		}
		for i := range lists {
			if len(betas[i]) != len(lists[i]) {
				return nil, fmt.Errorf("core: FreezePartition: node %d has %d weights for %d entries",
					lo+int32(i), len(betas[i]), len(lists[i]))
			}
			beta = append(beta, betas[i]...)
		}
	}
	for i, l := range lists {
		if len(l) == 0 {
			return nil, fmt.Errorf("core: FreezePartition: node %d has no entries (every node holds itself at distance 0)", lo+int32(i))
		}
	}
	return FreezeLists(p, index, count, total, lists, beta, true)
}

// FreezeLists is FreezePartition placed anywhere, for lists that may carry
// no ranks: count 0 asks for a whole set of total nodes, and beta is a
// weighted set's β column — one per entry, in list order.  Every sketch is
// validated; the entries' Rank fields must be the ones p derives when
// ranked, and are ignored otherwise.
func FreezeLists(p Params, index, count, total int, lists [][]Entry, beta []float64, ranked bool) (*Set, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	lo, hi, err := PartRange(index, max(count, 1), total)
	if err == nil && len(lists) != int(hi-lo) {
		err = fmt.Errorf("nodes [%d, %d) take %d entry lists, got %d", lo, hi, int(hi-lo), len(lists))
	}
	if err != nil {
		return nil, fmt.Errorf("core: FreezeLists: %w", err)
	}
	entries := 0
	for _, l := range lists {
		entries += len(l)
	}
	if weighted := p.Kind == KindWeighted; weighted && len(beta) != entries || !weighted && len(beta) != 0 {
		return nil, fmt.Errorf("core: FreezeLists: %d weights for %d entries of a %v set", len(beta), entries, p.Kind)
	}
	if len(beta) == 0 {
		beta = nil
	}
	f, err := freezeFrame(p, lo, total, lists, beta)
	if err != nil {
		return nil, fmt.Errorf("core: FreezeLists: %w", err)
	}
	if !ranked {
		lists = nil
	}
	if err := validateFrame(f, lists); err != nil {
		return nil, fmt.Errorf("core: FreezeLists: %w", err)
	}
	set := &Set{frame: f}
	if count > 0 {
		set.index, set.count = index, count
	}
	return set, nil
}
