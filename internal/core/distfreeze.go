package core

import "fmt"

// Partition-local freezing: a distributed build worker that owns the
// node range [i·total/P, (i+1)·total/P) assembles its finished per-node
// entry lists directly into a partition *Set, without the full set ever
// existing in one process.  FreezePartition produces partitions whose
// serialization is byte-identical to splitting a whole-set build of the
// same entries — writeFrameV3 rebases offsets to the frame's first entry
// and headerOf takes the envelope from the set's place in the split, so a
// compact worker-local frame and a SplitSketchSet slice of the full frame
// render the same bytes.

// partRange returns the node range [lo, hi) of partition index of a
// count-way split of total nodes — the i·n/P arithmetic of SplitSketchSet
// and cluster.SplitRanges, so the one range every writer records for that
// position — or why no split has that partition.
func partRange(index, count, total int) (lo, hi int32, err error) {
	switch {
	case count < 1 || count > maxCodecPartitions:
		return 0, 0, fmt.Errorf("implausible partition count %d", count)
	case index < 0 || index >= count:
		return 0, 0, fmt.Errorf("partition index %d out of range [0, %d)", index, count)
	case total > 1<<30 || total < count && !(total == 0 && count == 1):
		return 0, 0, fmt.Errorf("cannot split %d nodes into %d partitions", total, count)
	}
	return int32(index * total / count), int32((index + 1) * total / count), nil
}

// checkPartRange checks that partition index of a count-way split of total
// nodes covers [lo, hi), the range partRange gives it, naming both when it
// does not.
func checkPartRange(index, count, total int, lo, hi int64) error {
	wlo, whi, err := partRange(index, count, total)
	if err == nil && (lo != int64(wlo) || hi != int64(whi)) {
		err = fmt.Errorf("a %d-way split of %d nodes puts it at [%d, %d)", count, total, wlo, whi)
	}
	if err != nil {
		return fmt.Errorf("core: partition %d/%d claims nodes [%d, %d): %w", index, count, lo, hi, err)
	}
	return nil
}

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
	lo, _, err := partRange(index, count, total)
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
	if err := p.validate(); err != nil {
		return nil, err
	}
	lo, hi, err := partRange(index, max(count, 1), total)
	if err == nil && len(lists) != int(hi-lo) {
		err = fmt.Errorf("nodes [%d, %d) take %d entry lists, got %d", lo, hi, int(hi-lo), len(lists))
	}
	if err != nil {
		return nil, fmt.Errorf("core: FreezeLists: %w", err)
	}
	// freezeFrame keeps the bits of an ID its column has room for.
	for i, l := range lists {
		for j, e := range l {
			if uint32(e.Node) >= uint32(total) {
				return nil, fmt.Errorf("core: ADS(%d) entry %d names node %d outside [0, %d)", lo+int32(i), j, e.Node, total)
			}
		}
	}
	f := freezeFrame(p, lo, total, lists)
	if weighted := p.Kind == KindWeighted; weighted && len(beta) != f.totalEntries() || !weighted && len(beta) != 0 {
		return nil, fmt.Errorf("core: FreezeLists: %d weights for %d entries of a %v set", len(beta), f.totalEntries(), p.Kind)
	}
	f.beta = beta
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
