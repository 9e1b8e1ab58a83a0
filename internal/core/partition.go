package core

import "fmt"

// Node-range partitioning of sketch sets.  A billion-edge build does not
// fit one serving process, so a sketch set splits by node ID into P
// contiguous shards: partition i owns the sketches of global nodes
// [i·n/P, (i+1)·n/P).  A partition is a *Set in its own right — one that
// records its place in the split (Set.Part) beside the node range its
// frame holds (Set.Lo, Set.Hi, Set.TotalNodes) — so it serializes
// independently (the kind-3 envelope of the file format carries the
// partition header: index, count, node range, total nodes), loads through
// the one reader into a shard serving process, and the full split merges
// back bit-for-bit into the original set.  Entries inside a partition's
// sketches keep their global node IDs, so every HIP estimate computed from
// a partitioned sketch is identical to the one computed from the whole
// set.
//
// PartRange and its inverse PartOf are the one rule of node ownership: the
// partition files, the scatter coordinator, the distributed build and the
// builders' work split all place nodes by them.

// PartRange returns the node range [lo, hi) = [index·total/count,
// (index+1)·total/count) of partition index of a count-way split of total
// nodes, or why no split has that partition.
func PartRange(index, count, total int) (lo, hi int32, err error) {
	switch {
	case count < 1 || count > maxCodecPartitions:
		return 0, 0, fmt.Errorf("implausible partition count %d", count)
	case index < 0 || index >= count:
		return 0, 0, fmt.Errorf("partition index %d out of range [0, %d)", index, count)
	case total > 1<<30 || total < count && !(total == 0 && count == 1):
		return 0, 0, fmt.Errorf("cannot split %d nodes into %d partitions", total, count)
	}
	l, h := splitSpan(index, count, total)
	return int32(l), int32(h), nil
}

// splitSpan is PartRange's arithmetic without its refusals, for the
// builders' work split of n nodes among 1..max(n, 1) goroutines, which is
// no file's split and may span more than 2³⁰ nodes.
func splitSpan(index, count, total int) (lo, hi int) {
	return index * total / count, (index + 1) * total / count
}

// PartOf returns the partition of a count-way split of total nodes whose
// range holds node v, which must be in [0, total).
func PartOf(v int32, count, total int) int {
	return int(((int64(v)+1)*int64(count) - 1) / int64(total))
}

// CheckPartRange checks that partition index of a count-way split of total
// nodes covers [lo, hi), the range PartRange gives it, naming both when it
// does not.
func CheckPartRange(index, count, total int, lo, hi int64) error {
	wlo, whi, err := PartRange(index, count, total)
	if err == nil && (lo != int64(wlo) || hi != int64(whi)) {
		err = fmt.Errorf("a %d-way split of %d nodes puts it at [%d, %d)", count, total, wlo, whi)
	}
	if err != nil {
		return fmt.Errorf("core: partition %d/%d claims nodes [%d, %d): %w", index, count, lo, hi, err)
	}
	return nil
}

// SplitSketchSet partitions a whole sketch set by node ID into parts
// contiguous shards of near-equal size (partition i owns
// [i·n/parts, (i+1)·n/parts)).  The partitions alias the set's sketches —
// splitting allocates no sketch data — and MergeSketchSets reassembles
// them into a set whose serialization is bit-for-bit identical to the
// original's.  A partition does not split again.
func SplitSketchSet(s *Set, parts int) ([]*Set, error) {
	if s.IsPartition() {
		return nil, fmt.Errorf("core: SplitSketchSet: the set is partition %d of a %d-way split; split the whole set", s.index, s.count)
	}
	n := s.NumNodes()
	if _, _, err := PartRange(0, parts, n); err != nil {
		return nil, fmt.Errorf("core: SplitSketchSet: %w", err)
	}
	out := make([]*Set, parts)
	for i := range out {
		// Splitting a columnar frame is offset re-slicing: the sub-frame
		// shares the parent's entry columns, so no entry is copied.
		lo, hi, _ := PartRange(i, parts, n)
		out[i] = &Set{frame: s.frame.slice(int(lo), int(hi)), index: i, count: parts}
	}
	return out, nil
}

// MergeSketchSets reassembles a complete split back into one whole set.
// The partitions may arrive in any order; the merge validates that they
// form exactly one split (consistent count and total, indexes 0..P-1,
// the ranges SplitSketchSet cuts, equal Params) and returns a set
// whose serialization is bit-for-bit identical to the original's.
func MergeSketchSets(parts []*Set) (*Set, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: no partitions to merge")
	}
	byIndex := make([]*Set, len(parts))
	_, count := parts[0].Part()
	total := parts[0].TotalNodes()
	if count != len(parts) {
		return nil, fmt.Errorf("core: have %d partitions of a %d-way split", len(parts), count)
	}
	// count partitions of distinct indexes, each over its canonical range,
	// cover every node once.
	for _, p := range parts {
		index, c := p.Part()
		if c != count || p.TotalNodes() != total {
			return nil, fmt.Errorf("core: partition %d belongs to a different split (%d partitions of %d nodes, want %d of %d)",
				index, c, p.TotalNodes(), count, total)
		}
		if err := CheckPartRange(index, count, total, int64(p.Lo()), int64(p.Hi())); err != nil {
			return nil, err
		}
		if byIndex[index] != nil {
			return nil, fmt.Errorf("core: duplicate partition %d", index)
		}
		byIndex[index] = p
	}
	// The merged frame derives its ranks from partition 0's parameters, so
	// every partition has to have them, empty ones included.
	frames := make([]*Frame, len(byIndex))
	first := byIndex[0].frame.p
	for i, p := range byIndex {
		if frames[i] = p.frame; frames[i].p != first {
			return nil, fmt.Errorf("core: partition %d holds a set of %+v, partition 0 one of %+v", i, frames[i].p, first)
		}
	}
	// The partitions of a split share the whole set's node count and rank
	// order, so their node codes are copied as bit ranges; their counts and
	// steps are coded afresh where their own counts and dictionaries differ
	// from the whole set's.
	merged := &Set{frame: joinFrames(frames, 0, total)}
	// Cross-check the sketch owners against their global positions, so a
	// merge of tampered partitions cannot silently misattribute sketches.
	for v := 0; v < total; v++ {
		if owner := merged.SketchOf(int32(v)).Node(); owner != int32(v) {
			return nil, fmt.Errorf("core: merged sketch at position %d is owned by node %d", v, owner)
		}
	}
	return merged, nil
}

// ADSFromEntries reconstructs a bottom-k ADS from transported entries
// (e.g. a sketch fetched from a remote shard), validating the structural
// invariants: an empty list, which no ADS is, is refused.
func ADSFromEntries(owner int32, k int, entries []Entry) (*ADS, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: ADS(%d) with k = %d, must be >= 1", owner, k)
	}
	a := &ADS{k: k, node: owner, c: colsFromEntries(entries)}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}
