package core

import (
	"fmt"
	"math"

	"adsketch/internal/sketch"
)

// Partition-local freezing: a distributed build worker that owns the
// node range [i·total/P, (i+1)·total/P) assembles its finished per-node
// entry lists directly into a *Partition, without the full set ever
// existing in one process.  The constructors here produce partitions
// whose WritePartitionV3 serialization is byte-identical to splitting a
// whole-set build of the same entries — writeFrameV3 rebases offsets to
// the frame's first entry and headerOf takes the envelope from the
// Partition accessors, so a compact worker-local frame and a
// SplitSketchSet slice of the full frame render the same bytes.

// partRange resolves and validates the canonical node range of
// partition index in a count-way split of total nodes — the same
// i·n/P arithmetic SplitSketchSet and cluster.SplitRanges use.
func partRange(index, count, total int, lists int) (lo, hi int32, err error) {
	switch {
	case count < 1 || count > maxCodecPartitions:
		return 0, 0, fmt.Errorf("core: implausible partition count %d", count)
	case index < 0 || index >= count:
		return 0, 0, fmt.Errorf("core: partition index %d out of range [0, %d)", index, count)
	case total < count || total > 1<<30:
		return 0, 0, fmt.Errorf("core: cannot split %d nodes into %d partitions", total, count)
	}
	lo, hi = int32(index*total/count), int32((index+1)*total/count)
	if lists != int(hi-lo) {
		return 0, 0, fmt.Errorf("core: partition %d/%d owns nodes [%d, %d) but got %d entry lists",
			index, count, lo, hi, lists)
	}
	return lo, hi, nil
}

// FreezePartitionBottomK assembles one partition's per-node entry lists
// (lists[i] belongs to global node lo+i, in canonical order, satisfying
// the bottom-k inclusion condition, with the ranks o derives) into a
// *Partition.  Serializing it
// with WritePartitionV3 yields exactly the bytes of the corresponding
// SplitSketchSet slice of a whole-set build producing the same entries.
func FreezePartitionBottomK(o Options, index, count, total int, lists [][]Entry) (*Partition, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	if o.Flavor != sketch.BottomK {
		return nil, fmt.Errorf("core: FreezePartitionBottomK requires the bottom-k flavor, got %v", o.Flavor)
	}
	lo, hi, err := partRange(index, count, total, len(lists))
	if err != nil {
		return nil, err
	}
	f := freezeFrame(kindUniform, o, 0, 0, 1, lo, total, lists)
	if err := f.validateFrozen("FreezePartitionBottomK", lists); err != nil {
		return nil, err
	}
	return &Partition{index: index, count: count, lo: lo, hi: hi, total: total, set: &Set{frame: f}}, nil
}

// FreezePartitionWeighted is FreezePartitionBottomK for weight-biased
// ranks drawn from seed.  betas runs parallel to lists: betas[i][j] is
// the node weight β of entry lists[i][j].Node (each entry's weight
// travels with it, so a worker never needs the global weight vector).
func FreezePartitionWeighted(k int, seed uint64, scheme WeightScheme, index, count, total int, lists [][]Entry, betas [][]float64) (*Partition, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1")
	}
	if scheme != ExponentialWeights && scheme != PriorityWeights {
		return nil, fmt.Errorf("core: unknown weight scheme %d", scheme)
	}
	lo, hi, err := partRange(index, count, total, len(lists))
	if err != nil {
		return nil, err
	}
	if len(betas) != len(lists) {
		return nil, fmt.Errorf("core: FreezePartitionWeighted: %d beta lists for %d entry lists", len(betas), len(lists))
	}
	f := freezeFrame(kindWeighted, Options{K: k, Seed: seed}, scheme, 0, 1, lo, total, lists)
	f.beta = make([]float64, f.totalEntries())
	pos := 0
	for i := range lists {
		if len(betas[i]) != len(lists[i]) {
			return nil, fmt.Errorf("core: FreezePartitionWeighted: node %d has %d weights for %d entries",
				lo+int32(i), len(betas[i]), len(lists[i]))
		}
		pos += copy(f.beta[pos:], betas[i])
	}
	if err := f.validateFrozen("FreezePartitionWeighted", lists); err != nil {
		return nil, err
	}
	return &Partition{index: index, count: count, lo: lo, hi: hi, total: total, set: &WeightedSet{frame: f}}, nil
}

// FreezePartitionApprox assembles one partition of a (1+ε)-approximate
// set with ranks drawn from seed.  The relaxed acceptance rule means
// approximate entry lists need not satisfy the strict bottom-k inclusion
// condition, so validation checks what BuildApproxSet guarantees:
// canonical order, distinct nodes, the owner first at distance 0, and
// finite non-negative distances.
func FreezePartitionApprox(k int, seed uint64, eps float64, index, count, total int, lists [][]Entry) (*Partition, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1")
	}
	if eps < 0 || math.IsNaN(eps) || math.IsInf(eps, 1) {
		return nil, fmt.Errorf("core: invalid epsilon %g", eps)
	}
	lo, hi, err := partRange(index, count, total, len(lists))
	if err != nil {
		return nil, err
	}
	f := freezeFrame(kindApprox, Options{K: k, Seed: seed}, 0, eps, 1, lo, total, lists)
	if err := f.validateFrozen("FreezePartitionApprox", lists); err != nil {
		return nil, err
	}
	return &Partition{index: index, count: count, lo: lo, hi: hi, total: total, set: &ApproxSet{frame: f}}, nil
}
