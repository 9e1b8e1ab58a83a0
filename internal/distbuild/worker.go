package distbuild

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"os"
	"slices"

	"adsketch/internal/cluster"
	"adsketch/internal/core"
	"adsketch/internal/graph"
	"adsketch/internal/rank"
)

// arc is one reverse-adjacency edge of an owned node: the node has an
// in-neighbor From at distance W, so an entry accepted at the node
// propagates to From shifted by W.  Arcs are kept sorted by (From, W),
// matching the transpose adjacency order the sequential builders
// expand in.
type arc struct {
	From int32
	W    float64
}

// Worker owns one partition of a distributed build: the in-arcs of its
// node range and the growable entry lists of its sketches.  Its memory
// scales with the partition, never the whole graph.  In process a
// worker is its own Exchanger.  It is not safe for concurrent use: Run
// calls each exchanger once at a time, and WorkerHandler locks.
type Worker struct {
	spec   WorkerSpec
	kind   Kind
	lo, hi int32
	router *cluster.Router
	src    rank.Source

	in    [][]arc        // in-arcs of owned nodes, local index
	lists [][]core.Entry // entry lists of owned nodes, local index
	betas [][]float64    // per-entry node weights, parallel to lists (nil columns unless weighted)

	kern   core.OfferKernel
	inited bool
	frozen bool
	stats  Stats
}

// NewWorker returns an idle worker for one slice of a build.  Init
// loads the worker's slice of the edge list and seeds round 0.
func NewWorker(spec WorkerSpec) (*Worker, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ranges, err := cluster.SplitRanges(spec.N, spec.Parts)
	if err != nil {
		return nil, err
	}
	router, err := cluster.NewRouter(ranges, spec.N)
	if err != nil {
		return nil, err
	}
	r := ranges[spec.Index]
	return &Worker{
		spec:   spec,
		kind:   Kind(spec.Kind),
		lo:     r.Lo,
		hi:     r.Hi,
		router: router,
		src:    rank.NewSource(spec.Seed),
		kern:   core.NewOfferKernel(spec.K),
	}, nil
}

// Index returns the worker's partition index.
func (w *Worker) Index() int { return w.spec.Index }

// Range returns the owned node range [lo, hi).
func (w *Worker) Range() (lo, hi int32) { return w.lo, w.hi }

// Stats snapshots the worker.
func (w *Worker) Stats() Stats {
	st := w.stats
	st.OwnedNodes = int(w.hi - w.lo)
	for _, l := range w.lists {
		st.Entries += len(l)
	}
	for _, a := range w.in {
		st.Arcs += len(a)
	}
	return st
}

// rankOf returns owned node v's deterministic rank under the build's
// kind — the same value the sequential builders draw.
func (w *Worker) rankOf(v int32) float64 {
	switch w.kind {
	case KindWeighted:
		beta := w.spec.Beta[v-w.lo]
		if core.WeightScheme(w.spec.Scheme) == core.PriorityWeights {
			return w.src.PriorityRank(int64(v), beta)
		}
		return w.src.ExpRank(int64(v), beta)
	default:
		return w.src.Rank(int64(v))
	}
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
	w.in = make([][]arc, local)

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
			w.in[v-w.lo] = append(w.in[v-w.lo], arc{From: u, W: ew})
		}
		if !w.spec.Directed && owns(u) {
			w.in[u-w.lo] = append(w.in[u-w.lo], arc{From: v, W: ew})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, a := range w.in {
		slices.SortFunc(a, func(x, y arc) int {
			return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.W, y.W))
		})
	}

	w.lists = make([][]core.Entry, local)
	w.betas = make([][]float64, local)
	outs := make([][]Candidate, w.spec.Parts)
	for v := w.lo; v < w.hi; v++ {
		li := int(v - w.lo)
		rk := w.rankOf(v)
		w.lists[li] = []core.Entry{{Node: v, Dist: 0, Rank: rk}}
		if w.kind == KindWeighted {
			w.betas[li] = []float64{w.spec.Beta[li]}
		}
		for _, a := range w.in[li] {
			c := Candidate{Target: a.From, Node: v, Dist: a.W, Rank: rk}
			if w.kind == KindWeighted {
				c.Beta = w.spec.Beta[li]
			}
			dst, err := w.router.Owner(a.From)
			if err != nil {
				return nil, err
			}
			outs[dst] = append(outs[dst], c)
		}
	}
	return outs, nil
}

// Step applies one round's delivery to the owned sketches and returns
// the candidates the acceptances generate, indexed by destination
// worker.  Delivery order on entry does not matter: the worker sorts
// the inbox into the canonical order (dist, target, node) first, so
// every transport and worker count replays the same schedule.
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
	if len(inbox) > w.stats.MaxInbox {
		w.stats.MaxInbox = len(inbox)
	}
	slices.SortFunc(inbox, func(a, b Candidate) int {
		switch {
		case a.Dist != b.Dist:
			return cmp.Compare(a.Dist, b.Dist)
		case a.Target != b.Target:
			return cmp.Compare(a.Target, b.Target)
		}
		return cmp.Compare(a.Node, b.Node)
	})
	outs := make([][]Candidate, w.spec.Parts)
	for ci := range inbox {
		c := &inbox[ci]
		if c.Target < w.lo || c.Target >= w.hi {
			return nil, fmt.Errorf("distbuild: worker %d received a candidate for node %d outside [%d, %d)",
				w.spec.Index, c.Target, w.lo, w.hi)
		}
		w.stats.Offers++
		li := int(c.Target - w.lo)
		e := core.Entry{Node: c.Node, Dist: c.Dist, Rank: c.Rank}
		// The build kind's rule, both core.OfferKernel's: the relaxed (1+ε)
		// acceptance, or the exact insert-and-clean-up with c.Beta carried
		// into the parallel weight column of a weighted build.
		var ok bool
		if w.kind == KindApprox {
			w.lists[li], ok = w.kern.OfferApprox(w.lists[li], e, w.spec.Eps)
		} else {
			var evicted int
			w.lists[li], w.betas[li], evicted, ok = w.kern.Offer(w.lists[li], w.betas[li], e, c.Beta)
			w.stats.Evictions += int64(evicted)
		}
		if !ok {
			continue
		}
		w.stats.Accepts++
		for _, a := range w.in[li] {
			nc := Candidate{Target: a.From, Node: c.Node, Dist: c.Dist + a.W, Rank: c.Rank, Beta: c.Beta}
			dst, err := w.router.Owner(a.From)
			if err != nil {
				return nil, err
			}
			outs[dst] = append(outs[dst], nc)
		}
	}
	return outs, nil
}

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
	p := core.Params{Kind: core.KindUniform, Options: core.Options{K: w.spec.K, Seed: w.spec.Seed}}
	switch w.kind {
	case KindUniform:
	case KindWeighted:
		p.Kind, p.Scheme = core.KindWeighted, core.WeightScheme(w.spec.Scheme)
	case KindApprox:
		p.Kind, p.Eps = core.KindApprox, w.spec.Eps
	default:
		return nil, fmt.Errorf("distbuild: unknown kind %d", int(w.kind))
	}
	part, err := core.FreezePartition(p, w.spec.Index, w.spec.Parts, w.spec.N, w.lists, w.betas)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := part.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
