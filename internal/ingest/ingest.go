// Package ingest maintains All-Distances Sketches incrementally over an
// edge stream.  Edge insertions are monotone: a new edge can only shrink
// distances, so every change to any sketch is the arrival of a better
// (node, dist, rank) candidate.  The Maintainer keeps a frozen base set
// (built by core.BuildSet or a previous Freeze) plus a per-node overlay of
// updated entry lists, and propagates candidates along reverse edges with
// the bottom-k win rule of Algorithm 2 (core.OfferKernel, the copy the
// distributed build calls too) — so a Freeze is
// bit-for-bit the set a full rebuild of the final graph would produce.
// The package's own part of the rule is scanBase, which feeds the kernel
// from a frozen base's columns: its step code as it is, its node codes
// decoded (baseIDs).
//
// # Candidate propagation
//
// Inserting edge (u,v) of length w creates exactly the new paths that pass
// through it, and every such path reaches targets v reaches.  So the seed
// candidates at u are {(j, w + d_vj, r_j) : j in ADS(v)}, and an accepted
// candidate at x re-propagates to each in-neighbor p shifted by the arc
// length.  Two prunings keep the frontier bounded, both exact:
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
	"fmt"

	"adsketch/internal/core"
	"adsketch/internal/graph"
	"adsketch/internal/rank"
)

// arc is one reverse-adjacency edge: node x has an in-neighbor From at
// distance W, so a candidate accepted at x propagates to From shifted by W.
type arc struct {
	From int32
	W    float64
}

// candidate is a pending offer of entry E to node X's sketch.
type candidate struct {
	X int32
	E core.Entry
}

// Maintainer holds the mutable incremental state: the growable reverse
// adjacency, the frozen base set, and the overlay of per-node entry lists
// that differ from the base.  It is not safe for concurrent use; callers
// (the root Ingestor) serialize access.
type Maintainer struct {
	opts     core.Options
	src      rank.Source
	directed bool

	n       int
	in      [][]arc
	rank    []float64 // rank of every node, beside the adjacency: the base set stores none
	base    *core.Set
	overlay map[int32][]core.Entry

	queue []candidate
	kern  core.OfferKernel
	ids   []int32 // the decoded IDs of base node idsOf-1, none for 0 (baseIDs)
	ends  []int32 // and the ends of their runs of equal distance
	idsOf int32

	baseEdges int // edges of the graph the maintainer started from
	edges     int64
	offers    int64
	accepts   int64
	evictions int64
	frontier  int
}

// New returns a maintainer over the given graph and its built sketch set.
// The set must have been built from g (same node count), a uniform bottom-k
// set with full-precision ranks.  g's directedness fixes how future
// insertions are interpreted.  The maintainer copies the reverse adjacency
// and never mutates g or base.
func New(g *graph.Graph, base *core.Set) (*Maintainer, error) {
	if g == nil || base == nil {
		return nil, fmt.Errorf("ingest: nil graph or base set")
	}
	p := base.Params()
	if p.Kind != core.KindUniform || p.BaseB != 0 {
		return nil, fmt.Errorf("ingest: incremental maintenance supports uniform bottom-k sets at full precision, base set is %v at base %g", p.Kind, p.BaseB)
	}
	o := p.Options
	if g.NumNodes() != base.NumNodes() {
		return nil, fmt.Errorf("ingest: graph has %d nodes but base set has %d", g.NumNodes(), base.NumNodes())
	}
	m := &Maintainer{
		opts:      o,
		src:       o.Source(),
		directed:  g.Directed(),
		baseEdges: g.NumEdges(),
		n:         g.NumNodes(),
		in:        make([][]arc, g.NumNodes()),
		rank:      make([]float64, g.NumNodes()),
		base:      base,
		overlay:   make(map[int32][]core.Entry),
		kern:      core.NewOfferKernel(o.K),
	}
	for v := range m.rank {
		m.rank[v] = m.src.Rank(int64(v))
	}
	// Base entries are looked up in rank by node.  A uniform set's codes
	// decode through its rank order to nodes of the set whatever the bits
	// of an unvalidated file hold; checked all the same, as the lookups
	// would index past the table.
	var ids, ends []int32
	for v := 0; v < m.n; v++ {
		nodes, _ := base.Columns(int32(v))
		ids, ends, _ = nodes.AppendRuns(ids[:0], ends[:0])
		for _, u := range ids {
			if u < 0 || int(u) >= m.n {
				return nil, fmt.Errorf("ingest: base sketch of node %d names node %d outside [0, %d)", v, u, m.n)
			}
		}
	}
	// Reverse adjacency: arcs u->v land in in[v].  For undirected graphs
	// every edge is stored as two arcs, so this also yields the (identical)
	// neighbor lists.
	g.ForEachArc(func(u, v int32, w float64) {
		m.in[v] = append(m.in[v], arc{From: u, W: w})
	})
	return m, nil
}

// NumNodes returns the current node count (grows as insertions name new
// node IDs).
func (m *Maintainer) NumNodes() int { return m.n }

// K returns the sketch parameter.
func (m *Maintainer) K() int { return m.opts.K }

// Options returns the build options shared by the base and every Freeze.
func (m *Maintainer) Options() core.Options { return m.opts }

// Directed reports how insertions are interpreted.
func (m *Maintainer) Directed() bool { return m.directed }

// Insert adds an edge of length 1 from u to v (both directions for
// undirected maintainers) and propagates all sketch updates it causes.
// Node IDs beyond the current node count grow the node set, up to
// graph.NodeLimit of the edges counting this one; an edge past it is
// refused and changes nothing.
func (m *Maintainer) Insert(u, v int32) error { return m.InsertWeighted(u, v, 1) }

// InsertWeighted adds an edge with the given length, positive and finite
// (graph.ValidLength); any other is refused and changes nothing.
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
	m.in[v] = append(m.in[v], arc{From: u, W: w})
	if !m.directed {
		m.in[u] = append(m.in[u], arc{From: v, W: w})
	}
	m.edges++
	m.seed(u, v, w)
	if !m.directed {
		m.seed(v, u, w)
	}
	m.drain()
	return nil
}

// grow extends the node set to n nodes: each new node starts isolated,
// holding only itself at distance 0 with its deterministic rank.
func (m *Maintainer) grow(n int) {
	for ; m.n < n; m.n++ {
		v := int32(m.n)
		m.in = append(m.in, nil)
		m.rank = append(m.rank, m.src.Rank(int64(v)))
		m.overlay[v] = []core.Entry{{Node: v, Dist: 0, Rank: m.rank[v]}}
	}
}

// seed enqueues the candidates the new arc u<-v creates: every entry of
// ADS(v) shifted by the arc length (v's own distance-0 entry covers v
// itself).
func (m *Maintainer) seed(u, v int32, w float64) {
	m.each(v, func(e core.Entry) {
		m.push(candidate{X: u, E: core.Entry{Node: e.Node, Dist: e.Dist + w, Rank: e.Rank}})
	})
}

func (m *Maintainer) push(c candidate) {
	m.queue = append(m.queue, c)
	if len(m.queue) > m.frontier {
		m.frontier = len(m.queue)
	}
}

// drain processes the candidate worklist to exhaustion.  Order does not
// affect the result (acceptance depends only on the receiving sketch and
// the candidate), so a LIFO stack keeps the frontier small.
func (m *Maintainer) drain() {
	for len(m.queue) > 0 {
		c := m.queue[len(m.queue)-1]
		m.queue = m.queue[:len(m.queue)-1]
		m.offers++
		if !m.offer(c.X, c.E) {
			continue
		}
		m.accepts++
		for _, a := range m.in[c.X] {
			m.push(candidate{X: a.From, E: core.Entry{Node: c.E.Node, Dist: c.E.Dist + a.W, Rank: c.E.Rank}})
		}
	}
}

// each calls fn with node x's current entries in canonical order: the
// overlay list when the node has pending deltas (new nodes always enter
// the overlay in grow), else the base set's columns, whose ranks are
// m.rank's, whose distances are walked run by run off the steps and whose
// nodes and runs are decoded (baseIDs).
func (m *Maintainer) each(x int32, fn func(core.Entry)) {
	if sl, ok := m.overlay[x]; ok {
		for _, e := range sl {
			fn(e)
		}
		return
	}
	nodes, dists := m.base.Columns(x)
	ids, ends := m.baseIDs(x, nodes)
	dists.Runs(ends, func(from, to int, d float64) bool {
		for _, u := range ids[from:to] {
			fn(core.Entry{Node: u, Dist: d, Rank: m.rank[u]})
		}
		return true
	})
}

// baseIDs returns base node x's IDs and the ends of their runs, decoding
// its codes unless they were the last decoded: an offer the scan accepts
// reads the list again (each).
func (m *Maintainer) baseIDs(x int32, nodes core.Nodes) (ids, ends []int32) {
	if m.idsOf != x+1 {
		m.ids, m.ends, _ = nodes.AppendRuns(m.ids[:0], m.ends[:0])
		m.idsOf = x + 1
	}
	return m.ids, m.ends
}

// scanBase is the kernel's Scan over a base node's columns, walked by runs
// of equal distance, so that an entry costs a node comparison and — before
// e — a witnessed rank, never a distance: a run is wholly before e, wholly
// after it (where only an entry for e's node is looked for), or shares e's
// distance and splits at e's node ID.
func (m *Maintainer) scanBase(x int32, nodes core.Nodes, dists core.StepDists, e core.Entry) (pos, old int, ok bool) {
	m.kern.Reset()
	pos, old, ok = -1, -1, true
	ids, ends := m.baseIDs(x, nodes)
	dists.Runs(ends, func(from, to int, d float64) bool {
		if pos < 0 && d > e.Dist {
			pos = from
		}
		switch {
		case pos >= 0:
			for i := from; i < to; i++ {
				if ids[i] == e.Node {
					old = i
					return false
				}
			}
		case d < e.Dist:
			for i := from; i < to; i++ {
				u := ids[i]
				if u == e.Node {
					ok = false
					return false
				}
				m.kern.Witness(m.rank[u])
			}
		default: // d == e.Dist, and node IDs ascend along the run
			for i := from; i < to; i++ {
				u := ids[i]
				if u >= e.Node {
					ok = u > e.Node
					pos = i
					return ok
				}
				m.kern.Witness(m.rank[u])
			}
		}
		return true
	})
	if pos < 0 {
		pos = nodes.Len()
	}
	return pos, old, ok && m.kern.Admits(e.Rank)
}

// offer tests candidate e against node x's sketch with the kernel's rule,
// applying it (insert, possibly replacing a worse entry for the same node,
// possibly evicting later entries whose ranks stop winning) when it wins.
// It reports whether the sketch changed; a rejected candidate — no
// improvement, or k smaller ranks before it — fails everywhere upstream too.
func (m *Maintainer) offer(x int32, e core.Entry) bool {
	lst, inOverlay := m.overlay[x]
	var pos, old int
	var ok bool
	if inOverlay {
		pos, old, ok = m.kern.Scan(lst, e)
	} else {
		nodes, dists := m.base.Columns(x)
		pos, old, ok = m.scanBase(x, nodes, dists, e)
	}
	if !ok {
		return false
	}
	// Accepted: materialize the node in the overlay and apply the change.
	if !inOverlay {
		lst = m.Entries(x)
	}
	lst, _, evicted := m.kern.Apply(lst, nil, pos, old, e, 0)
	m.overlay[x] = lst
	m.evictions += int64(evicted)
	return true
}

// Entries returns node x's current entry list (base or overlay) in
// canonical order.  The slice is a fresh copy.
func (m *Maintainer) Entries(x int32) []core.Entry {
	if x < 0 || int(x) >= m.n {
		return nil
	}
	sl, ok := m.overlay[x]
	size := len(sl)
	if !ok {
		nodes, _ := m.base.Columns(x)
		size = nodes.Len()
	}
	out := make([]core.Entry, 0, size+1) // room for the entry offer is about to insert
	m.each(x, func(e core.Entry) { out = append(out, e) })
	return out
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
	m.idsOf = 0
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
	// FrontierMax is the high-water mark of the propagation worklist.
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
		FrontierMax:  m.frontier,
		OverlayNodes: len(m.overlay),
	}
	for _, sl := range m.overlay {
		st.OverlayEntries += len(sl)
	}
	return st
}
