package core

import (
	"fmt"
	"io"
)

// Node-range partitioning of sketch sets.  A billion-edge build does not
// fit one serving process, so a sketch set splits by node ID into P
// contiguous shards: partition i owns the sketches of global nodes
// [i·n/P, (i+1)·n/P).  Each partition is independently serializable (the
// kind-3 envelope of the file format carries the partition header: index,
// count, node range, total nodes), loads independently into a shard
// serving process, and the full split merges back bit-for-bit into the
// original set.  Entries inside a partition's sketches keep their global
// node IDs, so every HIP estimate computed from a partitioned sketch is
// identical to the one computed from the whole set.

// Partition is one contiguous node-range shard of a sketch set: the
// sketches of global nodes [Lo, Hi) of a TotalNodes-node set split into
// Count shards.  The inner set indexes sketches locally (sketch i is
// owned by global node Lo+i); SketchAt resolves global IDs.
type Partition struct {
	index, count int
	lo, hi       int32
	total        int
	set          *Set
}

// Index returns the partition's position in the split, in [0, Count).
func (p *Partition) Index() int { return p.index }

// Count returns how many partitions the set was split into.
func (p *Partition) Count() int { return p.count }

// Lo returns the first global node ID the partition owns.
func (p *Partition) Lo() int32 { return p.lo }

// Hi returns the global node ID one past the last the partition owns.
func (p *Partition) Hi() int32 { return p.hi }

// TotalNodes returns the node count of the full (unsplit) set.
func (p *Partition) TotalNodes() int { return p.total }

// NumLocal returns how many sketches the partition holds (Hi - Lo).
func (p *Partition) NumLocal() int { return int(p.hi - p.lo) }

// K returns the sketch parameter.
func (p *Partition) K() int { return p.set.K() }

// Set returns the inner, locally indexed sketch set: sketch i is owned by
// global node Lo+i.
func (p *Partition) Set() *Set { return p.set }

// Contains reports whether the partition owns global node v.
func (p *Partition) Contains(v int32) bool { return v >= p.lo && v < p.hi }

// SketchAt returns the sketch of global node v.
func (p *Partition) SketchAt(v int32) (Sketch, error) {
	if !p.Contains(v) {
		return nil, fmt.Errorf("core: node %d not owned by partition %d/%d (nodes [%d, %d))",
			v, p.index, p.count, p.lo, p.hi)
	}
	return p.set.SketchOf(v - p.lo), nil
}

// WriteTo serializes the partition in the version-3 format (the partition
// envelope followed by the inner set's columns) — the shard file an
// mmap-serving worker opens.  It implements io.WriterTo.
func (p *Partition) WriteTo(w io.Writer) (int64, error) { return writeFrameV3(w, p.set.frame, p) }

// ReadPartition deserializes one partition written by Partition.WriteTo,
// validating the partition header and every sketch's structural
// invariants.  Whole-set files are refused; read those with
// ReadSketchSet.
func ReadPartition(r io.Reader) (*Partition, error) {
	_, part, err := readAny(r, nil)
	if err != nil {
		return nil, err
	}
	if part == nil {
		return nil, fmt.Errorf("core: file holds a whole set, not a partition; use ReadSketchSet")
	}
	return part, nil
}

// SplitSketchSet partitions a sketch set by node ID into parts contiguous
// shards of near-equal size (partition i owns [i·n/parts, (i+1)·n/parts)).
// The partitions alias the set's sketches — splitting allocates no sketch
// data — and MergeSketchSets reassembles them into a set whose
// serialization is bit-for-bit identical to the original's.
func SplitSketchSet(s *Set, parts int) ([]*Partition, error) {
	n := s.NumNodes()
	if _, _, err := partRange(0, parts, n); err != nil {
		return nil, fmt.Errorf("core: SplitSketchSet: %w", err)
	}
	out := make([]*Partition, parts)
	for i := range out {
		// Splitting a columnar frame is offset re-slicing: the sub-frame
		// shares the parent's entry columns, so no entry is copied.
		lo, hi, _ := partRange(i, parts, n)
		sub := &Set{frame: s.frame.slice(int(lo), int(hi))}
		out[i] = &Partition{index: i, count: parts, lo: lo, hi: hi, total: n, set: sub}
	}
	return out, nil
}

// MergeSketchSets reassembles a complete split back into one whole set.
// The partitions may arrive in any order; the merge validates that they
// form exactly one split (consistent count and total, indexes 0..P-1,
// the ranges SplitSketchSet cuts, equal Params) and returns a set
// whose serialization is bit-for-bit identical to the original's.
func MergeSketchSets(parts []*Partition) (*Set, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: no partitions to merge")
	}
	byIndex := make([]*Partition, len(parts))
	count, total := parts[0].count, parts[0].total
	if count != len(parts) {
		return nil, fmt.Errorf("core: have %d partitions of a %d-way split", len(parts), count)
	}
	// count partitions of distinct indexes, each over its canonical range,
	// cover every node once.
	for _, p := range parts {
		if p.count != count || p.total != total {
			return nil, fmt.Errorf("core: partition %d belongs to a different split (%d partitions of %d nodes, want %d of %d)",
				p.index, p.count, p.total, count, total)
		}
		if err := checkPartRange(p.index, count, total, int64(p.lo), int64(p.hi)); err != nil {
			return nil, err
		}
		if byIndex[p.index] != nil {
			return nil, fmt.Errorf("core: duplicate partition %d", p.index)
		}
		byIndex[p.index] = p
	}
	// The merged frame derives its ranks from partition 0's parameters, so
	// every partition has to have them, empty ones included.
	frames := make([]*Frame, len(byIndex))
	first := byIndex[0].set.frame.p
	for i, p := range byIndex {
		if frames[i] = p.set.frame; frames[i].p != first {
			return nil, fmt.Errorf("core: partition %d holds a set of %+v, partition 0 one of %+v", i, frames[i].p, first)
		}
	}
	merged := &Set{frame: mergeFrames(frames)}
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
// invariants.
func ADSFromEntries(owner int32, k int, entries []Entry) (*ADS, error) {
	a := NewADS(owner, k)
	a.c = colsFromEntries(entries)
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}
