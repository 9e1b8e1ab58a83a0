package core

import "unsafe"

// HIPIndex is a prebuilt query index over a sketch's HIP entries: the
// entries themselves (with adjusted weights already derived) plus, per
// unique distance, the prefix sum of the adjusted weights, and the totals
// of the two common centrality integrands (weight·distance and
// weight/distance).  Repeated neighborhood queries cost one binary
// search, and closeness / harmonic queries cost O(1), instead of
// re-deriving the adjusted weights on every call — which matters when a
// sketch serves many queries (distance distributions, batch serving).
//
// This realizes the compression remark of Section 5: "for each unique
// distance d in ADS(i) we associate an adjusted weight equal to the sum of
// the adjusted weights of included nodes with distance d" — the index
// stores exactly that distance -> cumulative weight mapping.
//
// Storage is columnar, the entry nodes bit-packed (nodepack.go) and the
// entry distances step-coded (stepcode.go) the way a frame's are: the
// unique distances are the steps.  An index built standalone (NewHIPIndex)
// owns its columns, preallocated to exact size, its steps raw; the index of
// a node of a set (Frame.Index, what Engine serves) views the frame's
// nodes, step bits and steps, which may be codes into the frame's
// dictionary of distances, and owns one slice holding a weight per entry
// and a prefix sum per step.
//
// All accumulations scan the entries in canonical order, so every readout
// is bit-identical to the corresponding direct estimator (EstimateQ,
// EstimateCentrality, EstimateNeighborhoodHIP) on the same sketch.
type HIPIndex struct {
	// The totals of the weights, weight·distance and weight/distance,
	// which the unbounded readouts return: beside the header, so a scan
	// of every node's total reads one cache line a node, not a line of
	// each node's sums.
	total, totalD, totalH float64

	enode Nodes     // HIP entry nodes, canonical order, packed
	ew    []float64 // HIP adjusted weights, parallel to enode
	sd    StepDists // HIP entry distances, step-coded: its steps are the unique distances, ascending
	cum   []float64 // cum[i]: total adjusted weight at distance <= sd.steps[i]
	own   int64     // heap the index holds of its own (Bytes)
}

// NewHIPIndex builds a standalone index for any sketch, with
// every column preallocated to its exact size (one pass counts the unique
// distances, a second fills the prefix sums).  For sketches of a built
// set prefer the set's Index method, which views the set's columns.
func NewHIPIndex(s Sketch) *HIPIndex {
	entries := s.HIPEntries()
	unique := 0
	for i := range entries {
		if i == 0 || entries[i].Dist != entries[i-1].Dist {
			unique++
		}
	}
	// 32 bits an ID: a standalone sketch's nodes can be any int32.
	nodes := makePackedColumn(int64(len(entries)), 32)
	idx := &HIPIndex{
		enode: nodes.view(0, int64(len(entries))),
		ew:    make([]float64, len(entries)),
		cum:   make([]float64, 0, unique),
	}
	w := newStepWriter(len(entries), nil, int64(unique))
	for i, e := range entries {
		nodes.put(int64(i), nodeBits(e.Node))
		idx.ew[i] = e.Weight
		w.add(int64(i), e.Dist)
	}
	idx.sd = StepDists{first: w.first, col: &w.steps, n: unique}
	idx.sum()
	idx.own = int64(unsafe.Sizeof(*idx)) + 8*int64(len(nodes.words)+len(w.first)+len(w.steps.raw)+len(entries)+unique)
	return idx
}

// sum appends to the index's empty prefix-sum column, per step, the
// running total of the weights over the entries up to the step's last,
// and sets the totals of the weights, weight·distance and
// weight·(1/distance).
func (x *HIPIndex) sum() {
	total, totalD, totalH := 0.0, 0.0, 0.0
	w, s := x.ew, x.sd
	for i, j := 0, 0; i < len(w); j++ {
		end, d := s.runEnd(i, len(w)), s.step(j)
		inv := KernelHarmonic(d)
		for _, wi := range w[i:end] {
			total += wi
			totalD += wi * d
			totalH += wi * inv
		}
		x.cum = append(x.cum, total)
		i = end
	}
	x.total, x.totalD, x.totalH = total, totalD, totalH
}

// Bytes returns the heap the index holds of its own: its header, weights
// and prefix sums and, built standalone, its nodes and step code — not the
// frame columns it views.
func (x *HIPIndex) Bytes() int64 { return x.own }

// Len returns the number of indexed HIP entries.
func (x *HIPIndex) Len() int { return x.enode.n }

// Entries materializes the indexed HIP entries in canonical order (a
// fresh copy; the index stores them columnarly).
func (x *HIPIndex) Entries() []WeightedEntry {
	out := make([]WeightedEntry, x.enode.n)
	j, d := -1, 0.0
	for i := range out {
		if x.sd.starts(i) {
			j++
			d = x.sd.step(j)
		}
		out[i] = WeightedEntry{Node: x.enode.At(i), Dist: d, Weight: x.ew[i]}
	}
	return out
}

// EntryAt returns indexed HIP entry i in canonical order.  The distance
// is decoded from the step code, so scanning every entry is cheaper
// through Entries or EstimateQ.
func (x *HIPIndex) EntryAt(i int) WeightedEntry {
	return WeightedEntry{Node: x.enode.At(i), Dist: x.sd.at(i), Weight: x.ew[i]}
}

// search returns the position of the last indexed distance <= d, or -1.
func (x *HIPIndex) search(d float64) int { return x.sd.searchLE(d) }

// Neighborhood returns the HIP estimate of n_d: the cumulative adjusted
// weight at distance <= d.
func (x *HIPIndex) Neighborhood(d float64) float64 {
	if i := x.search(d); i >= 0 {
		return x.cum[i]
	}
	return 0
}

// Total returns the estimate of the number of reachable nodes.
func (x *HIPIndex) Total() float64 { return x.total }

// SumDistances returns the HIP estimate of Σ_j d_vj over reachable nodes
// (the inverse of classic closeness centrality) — equal to
// EstimateCentrality(s, KernelIdentity, UnitBeta) on the indexed sketch.
func (x *HIPIndex) SumDistances() float64 { return x.totalD }

// Closeness returns the HIP estimate of 1/Σ_j d_vj (0 when the estimated
// distance sum is 0, e.g. for an isolated node).
func (x *HIPIndex) Closeness() float64 {
	s := x.SumDistances()
	if s <= 0 {
		return 0
	}
	return 1 / s
}

// Harmonic returns the HIP estimate of Σ_{j != v} 1/d_vj — equal to
// EstimateCentrality(s, KernelHarmonic, UnitBeta) on the indexed sketch.
func (x *HIPIndex) Harmonic() float64 { return x.totalH }

// EstimateQ returns the HIP estimate of Q_g = Σ_j g(j, d_vj) from the
// cached entries, without re-deriving the adjusted weights — equal to
// EstimateQ(s, g) on the indexed sketch.
func (x *HIPIndex) EstimateQ(g func(node int32, dist float64) float64) float64 {
	sum := 0.0
	j, d := -1, 0.0
	for i := range x.ew {
		if x.sd.starts(i) {
			j++
			d = x.sd.step(j)
		}
		sum += x.ew[i] * g(x.enode.At(i), d)
	}
	return sum
}

// Distances returns the unique entry distances, ascending (the points at
// which the neighborhood estimate steps): the index's own column where it
// holds them as floats, a fresh slice where it holds codes into its
// frame's dictionary.  Callers must not modify it.
func (x *HIPIndex) Distances() []float64 { return x.sd.steps() }
