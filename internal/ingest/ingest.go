// Package ingest maintains All-Distances Sketches incrementally over an
// edge stream.  Edge insertions are monotone: a new edge can only shrink
// distances, so every change to any sketch is the arrival of a better
// (node, dist, rank) candidate.  The Maintainer keeps a frozen base set
// (built by core.BuildSet or a previous Freeze) plus a per-node overlay of
// updated entry lists, and propagates candidates along reverse edges with
// the bottom-k win rule of Algorithm 2 (core.OfferKernel's Merge, the copy
// the distributed build calls too) — so a Freeze is bit-for-bit the set a
// full rebuild of the final graph would produce.
//
// # Candidate propagation
//
// Candidates travel in batches: sorted runs of entries bound for one node,
// each shifted by one arc length.  Inserting edge (u,v) of length w creates
// exactly the new paths that pass through it, and every such path reaches
// targets v reaches.  So the seed is one batch at u, ADS(v) shifted by w:
// {(j, w + d_vj, r_j) : j in ADS(v)}, in ADS(v)'s canonical order.  The
// kernel merges a batch into the node's list in one pass, and the entries
// it accepts at x — a sorted run again — re-propagate to each in-neighbor
// p as one batch shifted by that arc's length.  A base node's list is
// decoded once per batch.  Two prunings keep the frontier bounded, both
// exact:
//
//   - No improvement: x already records j at distance <= d.  Every upstream
//     node then also records (or already rejected) a candidate at least as
//     good through an earlier path, so the candidate stops.
//
//   - Inclusion failure: at least k entries with rank < r_j canonically
//     precede (d, j) at x.  Those k witnesses shift with the candidate to
//     every predecessor p — witness (d_i, n_i) < (d, j) implies
//     (d_i + w', n_i) < (d + w', j), and p's true distances are only
//     smaller — so j fails everywhere upstream too, and j not in ADS(v)
//     (the reason it was never seeded) is exactly this condition at v.
//
// An accepted entry may evict later entries of the same sketch whose ranks
// stop winning; evictions never propagate (removal cannot improve anyone
// downstream, and stale candidates derived from an evicted entry are
// rejected by the same k witnesses that evicted it).
//
// The maintainer supports uniform sets with full-precision ranks.
// Rounded (base-b) ranks make rank ties likely, which breaks the strict
// "rank < threshold" win rule the propagation prunes by; the static
// builders handle ties with batch reconciliation that has no incremental
// analogue here.
package ingest

import (
	"cmp"
	"fmt"
	"slices"

	"adsketch/internal/core"
	"adsketch/internal/graph"
	"adsketch/internal/rank"
)

// batch is a sorted run of candidates bound for node X: the entries of
// Run, each shifted by W.
type batch struct {
	X   int32
	W   float64
	Run []core.Entry
}

// Maintainer holds the mutable incremental state: the growable reverse
// adjacency, the frozen base set, and the overlay of per-node entry lists
// that differ from the base.  It is not safe for concurrent use; callers
// (the root Ingestor) serialize access.
type Maintainer struct {
	src      rank.Source
	directed bool

	n       int
	rev     *graph.Graph  // the base graph's reverse adjacency: g, or its transpose when directed
	added   [][]graph.Arc // the arcs inserted since, by head: node x's in-arcs are rev's, then added[x]
	base    *core.Set
	overlay map[int32][]core.Entry

	queue   []batch
	queued  int          // the candidates the queue's batches hold
	cands   []core.Entry // the batch being merged, shifted
	decoded []core.Entry // a base node's list, decoded to merge into
	kern    core.OfferKernel

	baseEdges int // edges of the graph the maintainer started from
	edges     int64
	offers    int64
	accepts   int64
	evictions int64
	frontier  int
}

// New returns a maintainer over the given graph and its built sketch set.
// The set must have been built from g (same node count), a whole uniform
// bottom-k set with full-precision ranks.  g's directedness fixes how
// future insertions are interpreted.  The maintainer adopts both as they
// are, reading g's adjacency (its transpose when directed) in place, and
// never mutates g or base.
func New(g *graph.Graph, base *core.Set) (*Maintainer, error) {
	if g == nil || base == nil {
		return nil, fmt.Errorf("ingest: nil graph or base set")
	}
	p := base.Params()
	if p.Kind != core.KindUniform || p.BaseB != 0 {
		return nil, fmt.Errorf("ingest: incremental maintenance supports uniform bottom-k sets at full precision, base set is %v at base %g", p.Kind, p.BaseB)
	}
	// A uniform set's codes decode through its rank order to nodes of its
	// envelope whatever the bits of an unvalidated file hold, so no list
	// needs decoding here: a whole set's envelope is the graph's nodes.
	if base.IsPartition() || base.TotalNodes() != base.NumNodes() {
		index, count := base.Part()
		return nil, fmt.Errorf("ingest: base set is partition %d of %d, nodes [%d, %d) of %d; maintain the whole set",
			index, count, base.Lo(), base.Hi(), base.TotalNodes())
	}
	if g.NumNodes() != base.NumNodes() {
		return nil, fmt.Errorf("ingest: graph has %d nodes but base set has %d", g.NumNodes(), base.NumNodes())
	}
	m := &Maintainer{
		src:       p.Source(),
		directed:  g.Directed(),
		baseEdges: g.NumEdges(),
		n:         g.NumNodes(),
		rev:       g.Transpose(),
		added:     make([][]graph.Arc, g.NumNodes()),
		base:      base,
		overlay:   make(map[int32][]core.Entry),
		kern:      core.NewOfferKernel(p.K),
	}
	return m, nil
}

// InsertWeighted adds an edge of length w from u to v (both directions
// for undirected maintainers) and propagates all sketch updates it
// causes.  The length must be positive and finite (graph.ValidLength).
// Node IDs beyond the current node count grow the node set, up to
// graph.NodeLimit of the edges counting this one.  An edge refused for
// either reason changes nothing.
func (m *Maintainer) InsertWeighted(u, v int32, w float64) error {
	if u < 0 || v < 0 {
		return fmt.Errorf("ingest: edge (%d,%d) has a negative node ID", u, v)
	}
	if !graph.ValidLength(w) {
		return fmt.Errorf("ingest: edge (%d,%d) has length %g, want positive and finite", u, v, w)
	}
	hi := max(u, v)
	if edges := m.baseEdges + int(m.edges) + 1; int(hi) >= max(m.n, graph.NodeLimit(edges)) {
		return fmt.Errorf("ingest: edge (%d,%d) names node %d but %d edges allow at most %d nodes (graph.NodeLimit); relabel the IDs densely as 0..n-1",
			u, v, hi, edges, graph.NodeLimit(edges))
	}
	m.grow(int(hi) + 1)
	m.edges++
	// The arc u<-v seeds u with ADS(v) shifted by its length (v's own
	// distance-0 entry covers v itself).
	m.added[v] = append(m.added[v], graph.Arc{From: u, W: w})
	m.push(batch{X: u, W: w, Run: m.Entries(v)})
	if !m.directed {
		m.added[u] = append(m.added[u], graph.Arc{From: v, W: w})
		m.push(batch{X: v, W: w, Run: m.Entries(u)})
	}
	m.drain()
	return nil
}

// grow extends the node set to n nodes: each new node starts isolated,
// holding only itself at distance 0 with its deterministic rank.
func (m *Maintainer) grow(n int) {
	for ; m.n < n; m.n++ {
		v := int32(m.n)
		m.added = append(m.added, nil)
		m.overlay[v] = []core.Entry{{Node: v, Dist: 0, Rank: m.src.Rank(int64(v))}}
	}
}

// push queues batch b, keeping the high-water mark of queued candidates.
func (m *Maintainer) push(b batch) {
	m.queue = append(m.queue, b)
	m.queued += len(b.Run)
	m.frontier = max(m.frontier, m.queued)
}

// drain merges the worklist's batches to exhaustion.  Order does not
// affect the result (acceptance depends only on the receiving sketch and
// the candidate), so a LIFO stack keeps the frontier small.
func (m *Maintainer) drain() {
	for len(m.queue) > 0 {
		b := m.queue[len(m.queue)-1]
		m.queue = m.queue[:len(m.queue)-1]
		m.queued -= len(b.Run)
		m.merge(b)
	}
}

// merge applies batch b to node b.X's sketch with the kernel's rule —
// inserting, replacing worse entries for the same nodes, evicting later
// entries whose ranks stop winning — and pushes the entries it accepted,
// one batch to every in-neighbor of b.X shifted by the arc's length: along
// the base graph's arcs, then the inserted ones in the order they arrived.
func (m *Maintainer) merge(b batch) {
	m.cands = m.cands[:0]
	for _, e := range b.Run {
		m.cands = append(m.cands, core.Entry{Node: e.Node, Dist: e.Dist + b.W, Rank: e.Rank})
	}
	// Adding one length to a sorted run can round two distances to one
	// double and leave that tie out of node order: Merge needs it back.
	slices.SortFunc(m.cands, func(a, b core.Entry) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Node, b.Node))
	})
	lst, inOverlay := m.overlay[b.X]
	if !inOverlay {
		m.decoded = m.base.AppendEntries(m.decoded[:0], b.X)
		lst = m.decoded
	}
	lst, _, accepted, evicted := m.kern.Merge(lst, nil, m.cands, nil)
	m.offers += int64(len(m.cands))
	m.accepts += int64(len(accepted))
	m.evictions += int64(evicted)
	if len(accepted) == 0 {
		return
	}
	if !inOverlay {
		m.decoded = nil // the overlay takes the list
	}
	m.overlay[b.X] = lst
	run := make([]core.Entry, len(accepted))
	for i, at := range accepted {
		run[i] = m.cands[at]
	}
	if int(b.X) < m.rev.NumNodes() {
		from, ws := m.rev.Neighbors(b.X)
		for i, u := range from {
			w := 1.0
			if ws != nil {
				w = ws[i]
			}
			m.push(batch{X: u, W: w, Run: run})
		}
	}
	for _, a := range m.added[b.X] {
		m.push(batch{X: a.From, W: a.W, Run: run})
	}
}

// Entries returns node x's current entry list in canonical order: the
// overlay list when the node has pending deltas (new nodes always enter
// the overlay in grow), else the base set's, decoded.  The slice is a
// fresh copy.
func (m *Maintainer) Entries(x int32) []core.Entry {
	if x < 0 || int(x) >= m.n {
		return nil
	}
	if sl, ok := m.overlay[x]; ok {
		return slices.Clone(sl)
	}
	return m.base.AppendEntries(nil, x)
}

// Freeze assembles base + overlay into a new frozen sketch set, re-bases
// the maintainer on it, and clears the overlay.  The returned set is
// exactly what core.BuildSet would produce for the current graph.  Its
// cost follows the overlay: only those lists are validated, and the rest
// of the base is copied as it stands.
func (m *Maintainer) Freeze() (*core.Set, error) {
	set, err := core.FreezeBottomKOver(m.base, m.n, m.overlay)
	if err != nil {
		return nil, err
	}
	m.base = set
	m.overlay = make(map[int32][]core.Entry)
	return set, nil
}

// Stats is a point-in-time snapshot of the maintainer's counters.
type Stats struct {
	// Nodes is the current node count.
	Nodes int `json:"nodes"`
	// Edges counts every edge ever inserted.
	Edges int64 `json:"edges"`
	// Offers counts candidate evaluations; Accepts the subset that changed
	// a sketch; Evictions the entries dropped by accepted candidates.
	Offers    int64 `json:"offers"`
	Accepts   int64 `json:"accepts"`
	Evictions int64 `json:"evictions"`
	// Examined counts the entries the offer rule read, candidates and the
	// receiving lists' entries alike (core.OfferKernel.Examined).
	Examined int64 `json:"examined"`
	// FrontierMax is the most candidates the propagation worklist held.
	FrontierMax int `json:"frontier_max"`
	// OverlayNodes / OverlayEntries size the pending deltas not yet frozen.
	OverlayNodes   int `json:"overlay_nodes"`
	OverlayEntries int `json:"overlay_entries"`
}

// Stats snapshots the maintainer.
func (m *Maintainer) Stats() Stats {
	st := Stats{
		Nodes:        m.n,
		Edges:        m.edges,
		Offers:       m.offers,
		Accepts:      m.accepts,
		Evictions:    m.evictions,
		Examined:     m.kern.Examined,
		FrontierMax:  m.frontier,
		OverlayNodes: len(m.overlay),
	}
	for _, sl := range m.overlay {
		st.OverlayEntries += len(sl)
	}
	return st
}
