package distbuild

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"os"
	"slices"

	"adsketch/internal/core"
	"adsketch/internal/graph"
)

// Worker owns one partition of a distributed build: the in-arcs of its
// node range and the growable entry lists of its sketches.  Its memory
// scales with the partition, never the whole graph.  In process a
// worker is its own Exchanger.  It is not safe for concurrent use: Run
// calls each exchanger once at a time, and WorkerHandler locks.
type Worker struct {
	spec   WorkerSpec
	params core.Params
	lo, hi int32

	in    [][]graph.Arc  // in-arcs of owned nodes, local index, by (From, W): the transpose's order
	lists [][]core.Entry // entry lists of owned nodes, local index
	betas [][]float64    // per-entry node weights, parallel to lists (nil columns unless weighted)

	kern   core.OfferKernel
	batch  []core.Entry // one target's candidates as entries (relax)
	batchB []float64    // and their node weights
	inited bool
	frozen bool
}

// NewWorker returns an idle worker for one slice of a build.  Init
// loads the worker's slice of the edge list and seeds round 0.
func NewWorker(spec WorkerSpec) (*Worker, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	lo, hi, _ := spec.owned() // Validate has checked it
	return &Worker{
		spec:   spec,
		params: spec.params(),
		lo:     lo,
		hi:     hi,
		kern:   core.NewOfferKernel(spec.K),
	}, nil
}

// Init streams the worker's slice of the edge list — only lines with an
// endpoint in the owned range survive the filter — seeds every owned
// node with its self entry, and returns the round-0 candidate outboxes,
// indexed by destination worker.
func (w *Worker) Init(ctx context.Context) ([][]Candidate, error) {
	if w.inited {
		return nil, fmt.Errorf("distbuild: worker %d already initialized", w.spec.Index)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w.inited = true
	local := int(w.hi - w.lo)
	w.in = make([][]graph.Arc, local)

	f, err := os.Open(w.spec.Path)
	if err != nil {
		return nil, fmt.Errorf("distbuild: worker %d: %w", w.spec.Index, err)
	}
	defer f.Close()
	owns := func(v int32) bool { return v >= w.lo && v < w.hi }
	keep := func(u, v int32) bool {
		// Out-of-range IDs must reach fn so every worker reports the
		// same error for a bad file, filter or no filter.
		if int(u) >= w.spec.N || int(v) >= w.spec.N {
			return true
		}
		if w.spec.Directed {
			return owns(v)
		}
		return owns(u) || owns(v)
	}
	err = graph.ScanEdgesFiltered(f, keep, func(u, v int32, ew float64, hasW bool) error {
		if int(u) >= w.spec.N || int(v) >= w.spec.N {
			return fmt.Errorf("distbuild: edge (%d,%d) names a node outside [0, %d)", u, v, w.spec.N)
		}
		if !hasW {
			ew = 1.0
		}
		// An arc u->v lands in the reverse adjacency of v.  Undirected
		// edges are two arcs; a self-loop therefore contributes both,
		// exactly like the in-memory builder's adjacency.
		if owns(v) {
			w.in[v-w.lo] = append(w.in[v-w.lo], graph.Arc{From: u, W: ew})
		}
		if !w.spec.Directed && owns(u) {
			w.in[u-w.lo] = append(w.in[u-w.lo], graph.Arc{From: v, W: ew})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, a := range w.in {
		slices.SortFunc(a, func(x, y graph.Arc) int {
			return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.W, y.W))
		})
	}

	w.lists = make([][]core.Entry, local)
	w.betas = make([][]float64, local)
	outs := make([][]Candidate, w.spec.Parts)
	rank := w.params.Ranker() // the rank every builder draws for a node
	for v := w.lo; v < w.hi; v++ {
		li := int(v - w.lo)
		var beta float64
		if w.params.Kind == KindWeighted {
			beta = w.spec.Beta[li]
			w.betas[li] = []float64{beta}
		}
		self := Candidate{Target: v, Node: v, Rank: rank(v, beta), Beta: beta}
		w.lists[li] = []core.Entry{{Node: v, Dist: 0, Rank: self.Rank}}
		w.propagate(li, self, outs)
	}
	return outs, nil
}

// Step applies one round's delivery to the owned sketches and returns
// the candidates the acceptances generate, indexed by destination
// worker.  It refuses an inbox holding a candidate it cannot apply
// (check) before it applies any, then relaxes each target's slice in
// (dist, node) order, whatever the order of delivery.
func (w *Worker) Step(ctx context.Context, round int, inbox []Candidate) ([][]Candidate, error) {
	if !w.inited {
		return nil, fmt.Errorf("distbuild: worker %d stepped before Init", w.spec.Index)
	}
	if w.frozen {
		return nil, fmt.Errorf("distbuild: worker %d stepped after Freeze", w.spec.Index)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := w.check(round, inbox); err != nil {
		return nil, err
	}
	slices.SortFunc(inbox, func(a, b Candidate) int {
		return cmp.Or(cmp.Compare(a.Target, b.Target), cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Node, b.Node))
	})
	outs := make([][]Candidate, w.spec.Parts)
	for lo, hi := 0, 0; lo < len(inbox); lo = hi {
		for hi = lo + 1; hi < len(inbox) && inbox[hi].Target == inbox[lo].Target; hi++ {
		}
		w.relax(inbox[lo:hi], outs)
	}
	return outs, nil
}

// check refuses an inbox holding a candidate this worker cannot apply,
// naming the first and what is wrong with it.
func (w *Worker) check(round int, inbox []Candidate) error {
	weighted := w.params.Kind == KindWeighted
	for i, c := range inbox {
		var bad string
		switch {
		case c.Target < w.lo || c.Target >= w.hi:
			bad = fmt.Sprintf("target outside [%d, %d)", w.lo, w.hi)
		case c.Node < 0 || int(c.Node) >= w.spec.N:
			bad = fmt.Sprintf("node outside [0, %d)", w.spec.N)
		case !graph.ValidLength(c.Dist):
			bad = "distance not positive and finite"
		case !(c.Rank > 0) || math.IsInf(c.Rank, 1) || !weighted && c.Rank > 1:
			bad = "rank not in the kind's range"
		case weighted && !graph.ValidLength(c.Beta):
			bad = "node weight not positive and finite"
		default:
			continue
		}
		return fmt.Errorf("distbuild: worker %d round %d refused candidate %d (target %d, node %d, dist %g, rank %g, beta %g): %s",
			w.spec.Index, round, i, c.Target, c.Node, c.Dist, c.Rank, c.Beta, bad)
	}
	return nil
}

// relax applies one target's candidates, sorted by (dist, node), with the
// kind's rule — one Merge for the exact kinds, node weights in its parallel
// column, or OfferApprox a candidate at a time — and queues on outs what
// every acceptance generates.
func (w *Worker) relax(cs []Candidate, outs [][]Candidate) {
	li := int(cs[0].Target - w.lo)
	if w.params.Kind == KindApprox {
		for _, c := range cs {
			var ok bool
			w.lists[li], ok = w.kern.OfferApprox(w.lists[li], core.Entry{Node: c.Node, Dist: c.Dist, Rank: c.Rank}, w.spec.Eps)
			if ok {
				w.propagate(li, c, outs)
			}
		}
		return
	}
	w.batch, w.batchB = w.batch[:0], w.batchB[:0]
	for _, c := range cs {
		w.batch = append(w.batch, core.Entry{Node: c.Node, Dist: c.Dist, Rank: c.Rank})
		w.batchB = append(w.batchB, c.Beta)
	}
	var accepted []int
	w.lists[li], w.betas[li], accepted, _ = w.kern.Merge(w.lists[li], w.betas[li], w.batch, w.batchB)
	for _, at := range accepted {
		w.propagate(li, cs[at], outs)
	}
}

// propagate queues candidate c, accepted at local node li, for every
// in-neighbor of the node, shifted by the arc's length.
func (w *Worker) propagate(li int, c Candidate, outs [][]Candidate) {
	for _, a := range w.in[li] {
		dst := core.PartOf(a.From, w.spec.Parts, w.spec.N)
		outs[dst] = append(outs[dst], Candidate{Target: a.From, Node: c.Node, Dist: c.Dist + a.W, Rank: c.Rank, Beta: c.Beta})
	}
}

// Examined implements ExaminedCounter (core.OfferKernel.Examined).
func (w *Worker) Examined() int64 { return w.kern.Examined }

// Freeze assembles the owned lists into a v3 partition file and returns
// its bytes — byte-identical to Set.WriteTo of the corresponding
// SplitSketchSet slice of a single-process build.  The worker cannot be
// stepped afterwards.
func (w *Worker) Freeze(ctx context.Context) ([]byte, error) {
	if !w.inited {
		return nil, fmt.Errorf("distbuild: worker %d frozen before Init", w.spec.Index)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w.frozen = true
	part, err := core.FreezePartition(w.params, w.spec.Index, w.spec.Parts, w.spec.N, w.lists, w.betas)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := part.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
