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
// Storage is columnar, the entry distances step-coded (stepcode.go) the
// way a frame's are: the unique distances are the steps, one a run of the
// nodes.  An index built standalone (NewHIPIndex) owns its columns,
// exactly sized — its nodes as they are, its runs' ends, its steps raw;
// the index of a node of a set (Frame.Index, what Engine serves) views the
// frame's node codes (nodepack.go), runs and all, and steps, which may be
// codes into the frame's dictionary, and owns one slice holding a weight
// per entry and a prefix sum per step.
//
// All accumulations scan the entries in canonical order, so every readout
// is bit-identical to the corresponding direct estimator (EstimateQ,
// EstimateCentrality, EstimateNeighborhoodHIP) on the same sketch.
type HIPIndex struct {
	// The totals of weight·distance and weight/distance, which the
	// unbounded readouts return: beside the header, so a scan of every
	// node's total reads one cache line a node, not a line of each node's
	// sums.
	totalD, totalH float64

	enode nodeCodes // HIP entry nodes and runs, canonical order: coded, or a standalone index's own
	ew    []float64 // HIP adjusted weights, parallel to enode
	sd    StepDists // HIP entry distances, one a run of enode: the unique distances, ascending
	cum   []float64 // cum[i]: total adjusted weight at distance <= sd.steps[i]
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
	// The IDs as they are: a standalone sketch's nodes can be any int32.
	ids := make([]int32, len(entries))
	stream := &nodeStream{ids: ids, ends: make([]int32, 0, unique)}
	steps := &stepColumn{n: int64(unique), raw: make([]float64, 0, unique)}
	idx := &HIPIndex{
		enode: nodeCodes{s: stream},
		ew:    make([]float64, len(entries)),
		sd:    StepDists{col: steps, n: unique},
		cum:   make([]float64, 0, unique),
	}
	for i, e := range entries {
		ids[i], idx.ew[i] = e.Node, e.Weight
		if i == 0 || e.Dist != entries[i-1].Dist {
			steps.raw = append(steps.raw, e.Dist)
		}
		if i+1 == len(entries) || entries[i+1].Dist != e.Dist {
			stream.ends = append(stream.ends, int32(i+1))
		}
	}
	idx.sum(stream.ends)
	return idx
}

// sum appends to the index's empty prefix-sum column, per step, the
// running total of the weights over the entries of its run, which ends
// lists the ends of, and sets the totals of weight·distance and
// weight·(1/distance).
func (x *HIPIndex) sum(ends []int32) {
	total, totalD, totalH := 0.0, 0.0, 0.0
	w, s, i := x.ew, x.sd, 0
	for j, end := range ends {
		d := s.step(j)
		inv := KernelHarmonic(d)
		for _, wi := range w[i:end] {
			total += wi
			totalD += wi * d
			totalH += wi * inv
		}
		x.cum = append(x.cum, total)
		i = int(end)
	}
	x.totalD, x.totalH = totalD, totalH
}

// Bytes returns the heap the index holds of its own: its header, weights
// and prefix sums and, built standalone, its nodes and step code — not the
// frame columns it views.
func (x *HIPIndex) Bytes() int64 {
	b := int64(unsafe.Sizeof(*x)) + 8*int64(len(x.ew)+len(x.cum))
	if s := x.enode.s; s.ids != nil {
		b += int64(unsafe.Sizeof(*s)) + 4*int64(len(s.ids)+len(s.ends)) + 8*int64(len(x.sd.col.raw))
	}
	return b
}

// Len returns the number of indexed HIP entries.
func (x *HIPIndex) Len() int { return len(x.ew) }

// nodes returns the indexed entries' nodes.
func (x *HIPIndex) nodes() Nodes {
	return Nodes{nodeCodes: x.enode, n: len(x.ew), steps: x.sd.n}
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
	nodes := x.nodes().cursor()
	for _, w := range x.ew {
		u := nodes.Next()
		sum += w * g(u, x.sd.step(nodes.step()))
	}
	return sum
}
