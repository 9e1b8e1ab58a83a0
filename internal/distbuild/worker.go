package distbuild

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"

	"adsketch/internal/cluster"
	"adsketch/internal/core"
	"adsketch/internal/graph"
	"adsketch/internal/rank"
	"adsketch/internal/sketch"
)

// arc is one reverse-adjacency edge of an owned node: the node has an
// in-neighbor From at distance W, so an entry accepted at the node
// propagates to From shifted by W.  Arcs are kept sorted by (From, W),
// matching the transpose adjacency order the sequential builders
// expand in — the approximate kind's lineage keys index into this
// order.
type arc struct {
	From int32
	W    float64
}

// Worker owns one partition of a distributed build: the in-arcs of its
// node range and the growable entry lists of its sketches.  Its memory
// scales with the partition, never the whole graph.  A worker is not
// safe for concurrent use; the exchanger serializes access.
type Worker struct {
	spec   WorkerSpec
	kind   Kind
	lo, hi int32
	router *cluster.Router
	src    rank.Source

	in    [][]arc        // in-arcs of owned nodes, local index
	lists [][]core.Entry // entry lists of owned nodes, local index
	betas [][]float64    // per-entry node weights, parallel to lists (weighted only)

	h      kheap
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
		h:      kheap{k: spec.K, v: make([]float64, 0, spec.K)},
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
	for x := range w.in {
		a := w.in[x]
		sort.Slice(a, func(i, j int) bool {
			if a[i].From != a[j].From {
				return a[i].From < a[j].From
			}
			return a[i].W < a[j].W
		})
	}

	w.lists = make([][]core.Entry, local)
	if w.kind == KindWeighted {
		w.betas = make([][]float64, local)
	}
	outs := make([][]Candidate, w.spec.Parts)
	for v := w.lo; v < w.hi; v++ {
		li := int(v - w.lo)
		rk := w.rankOf(v)
		w.lists[li] = []core.Entry{{Node: v, Dist: 0, Rank: rk}}
		if w.betas != nil {
			w.betas[li] = []float64{w.spec.Beta[li]}
		}
		for i, a := range w.in[li] {
			c := Candidate{Target: a.From, Node: v, Dist: a.W, Rank: rk}
			if w.kind == KindWeighted {
				c.Beta = w.spec.Beta[li]
			}
			if w.kind == KindApprox {
				c.Key = []uint64{uint64(uint32(v))<<32 | uint64(uint32(i))}
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
// the inbox into the build's canonical order first — (dist, target,
// node) for the exact kinds, lineage key for the approximate kind —
// so every transport and worker count replays the same schedule.
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
	if w.kind == KindApprox {
		sort.Slice(inbox, func(i, j int) bool { return keyLess(inbox[i].Key, inbox[j].Key) })
	} else {
		sort.Slice(inbox, func(i, j int) bool {
			a, b := &inbox[i], &inbox[j]
			if a.Dist != b.Dist {
				return a.Dist < b.Dist
			}
			if a.Target != b.Target {
				return a.Target < b.Target
			}
			return a.Node < b.Node
		})
	}
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
		var ok bool
		if w.kind == KindApprox {
			ok = w.insertApprox(li, e)
		} else {
			ok = w.offer(li, e, c.Beta)
		}
		if !ok {
			continue
		}
		w.stats.Accepts++
		for i, a := range w.in[li] {
			nc := Candidate{Target: a.From, Node: c.Node, Dist: c.Dist + a.W, Rank: c.Rank, Beta: c.Beta}
			if w.kind == KindApprox {
				key := make([]uint64, len(c.Key)+1)
				copy(key, c.Key)
				key[len(c.Key)] = uint64(uint32(i))
				nc.Key = key
			}
			dst, err := w.router.Owner(a.From)
			if err != nil {
				return nil, err
			}
			outs[dst] = append(outs[dst], nc)
		}
	}
	return outs, nil
}

// keyLess is the lexicographic order of lineage keys.  All keys of one
// round have equal length; the length tiebreak only matters for
// malformed mixed input and keeps the order total.
func keyLess(a, b []uint64) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// before is the canonical (distance, node ID) order of core.
func before(a, b core.Entry) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Node < b.Node
}

// offer tests candidate e against owned list li with the exact bottom-k
// win rules — the same single-scan insert/evict the incremental
// maintainer (ingest.Maintainer.offer) proved bit-compatible with the
// static builders.  beta is e's node weight, carried into the parallel
// weight column on acceptance.
func (w *Worker) offer(li int, e core.Entry, beta float64) bool {
	lst := w.lists[li]
	k := w.spec.K
	pos, old := -1, -1
	h := &w.h
	h.reset()
	for i := 0; i < len(lst); i++ {
		ent := lst[i]
		if ent.Node == e.Node {
			if ent.Dist <= e.Dist {
				return false // no improvement
			}
			old = i
		}
		if pos < 0 {
			if before(ent, e) {
				h.offer(ent.Rank)
			} else {
				pos = i
			}
		}
		if pos >= 0 && old >= 0 {
			break
		}
	}
	if pos < 0 {
		pos = len(lst)
	}
	if h.size() >= k && e.Rank >= h.max() {
		return false // fails inclusion; fails everywhere upstream too
	}
	weighted := w.betas != nil
	var bl []float64
	if weighted {
		bl = w.betas[li]
	}
	// An existing entry for the same node sits at or after the insertion
	// position (its distance is larger), so deleting it never shifts pos.
	if old >= 0 {
		lst = append(lst[:old], lst[old+1:]...)
		if weighted {
			bl = append(bl[:old], bl[old+1:]...)
		}
	}
	lst = append(lst, core.Entry{})
	copy(lst[pos+1:], lst[pos:])
	lst[pos] = e
	if weighted {
		bl = append(bl, 0)
		copy(bl[pos+1:], bl[pos:])
		bl[pos] = beta
	}
	// Re-filter the suffix: drop entries whose rank no longer beats the
	// k-th smallest preceding rank.
	h.offer(e.Rank)
	out := lst[:pos+1]
	var bout []float64
	if weighted {
		bout = bl[:pos+1]
	}
	for i := pos + 1; i < len(lst); i++ {
		ent := lst[i]
		if h.size() >= k && ent.Rank >= h.max() {
			w.stats.Evictions++
			continue
		}
		h.offer(ent.Rank)
		out = append(out, ent)
		if weighted {
			bout = append(bout, bl[i])
		}
	}
	w.lists[li] = out
	if weighted {
		w.betas[li] = bout
	}
	return true
}

// insertApprox tests candidate e against owned list li with the relaxed
// (1+ε) acceptance rule, replicating core.BuildApproxSet's insert
// exactly: an existing entry within slack rejects, the inclusion
// threshold counts only entries within distance e.Dist·(1+ε), and an
// acceptance never evicts other nodes' entries.
func (w *Worker) insertApprox(li int, e core.Entry) bool {
	p := &w.lists[li]
	eps := w.spec.Eps
	for i := range *p {
		if (*p)[i].Node == e.Node {
			if (*p)[i].Dist <= e.Dist*(1+eps) {
				return false // existing entry is good enough
			}
			copy((*p)[i:], (*p)[i+1:])
			*p = (*p)[:len(*p)-1]
			break
		}
	}
	limit := e.Dist * (1 + eps)
	h := &w.h
	h.reset()
	for _, x := range *p {
		if x.Dist <= limit {
			h.offer(x.Rank)
		}
	}
	if h.size() >= w.spec.K && e.Rank >= h.max() {
		return false
	}
	pos := sort.Search(len(*p), func(i int) bool { return !before((*p)[i], e) })
	*p = append(*p, core.Entry{})
	copy((*p)[pos+1:], (*p)[pos:])
	(*p)[pos] = e
	return true
}

// Freeze assembles the owned lists into a v3 partition file and returns
// its bytes — byte-identical to WritePartitionV3 over the corresponding
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
	var (
		p   *core.Partition
		err error
	)
	switch w.kind {
	case KindUniform:
		opts := core.Options{K: w.spec.K, Flavor: sketch.BottomK, Seed: w.spec.Seed}
		p, err = core.FreezePartitionBottomK(opts, w.spec.Index, w.spec.Parts, w.spec.N, w.lists)
	case KindWeighted:
		p, err = core.FreezePartitionWeighted(w.spec.K, w.spec.Seed, core.WeightScheme(w.spec.Scheme),
			w.spec.Index, w.spec.Parts, w.spec.N, w.lists, w.betas)
	case KindApprox:
		p, err = core.FreezePartitionApprox(w.spec.K, w.spec.Seed, w.spec.Eps,
			w.spec.Index, w.spec.Parts, w.spec.N, w.lists)
	default:
		err = fmt.Errorf("distbuild: unknown kind %d", int(w.kind))
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := core.WritePartitionV3(&buf, p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// kheap keeps the k smallest ranks offered, exposing their maximum —
// the same structure core's builders and ingest's maintainer prune by.
type kheap struct {
	k int
	v []float64
}

func (h *kheap) reset()       { h.v = h.v[:0] }
func (h *kheap) size() int    { return len(h.v) }
func (h *kheap) max() float64 { return h.v[0] }

func (h *kheap) offer(x float64) {
	if len(h.v) < h.k {
		h.v = append(h.v, x)
		i := len(h.v) - 1
		for i > 0 {
			p := (i - 1) / 2
			if h.v[p] >= h.v[i] {
				break
			}
			h.v[p], h.v[i] = h.v[i], h.v[p]
			i = p
		}
		return
	}
	if x >= h.v[0] {
		return
	}
	h.v[0] = x
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h.v) && h.v[l] > h.v[big] {
			big = l
		}
		if r < len(h.v) && h.v[r] > h.v[big] {
			big = r
		}
		if big == i {
			break
		}
		h.v[i], h.v[big] = h.v[big], h.v[i]
		i = big
	}
}
