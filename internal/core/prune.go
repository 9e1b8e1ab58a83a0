package core

import (
	"cmp"
	"math"
	"slices"

	"adsketch/internal/graph"
	"adsketch/internal/rank"
)

// Algorithm 1's pass state, one kernel for hop counts and one for float
// distances, both driven by runCands.
//
// Candidates arrive in increasing rank, so every entry a node already
// holds has a smaller rank than the one on offer, and the offer belongs in
// the sketch iff fewer than k held entries precede it canonically — iff
// its key precedes the key of the node's k-th canonically-smallest entry.
// That key is the node's threshold, kept in a dense column so the prune
// test is a comparison that never touches a list.
//
// heads[v] holds the keys of v's (up to) k canonically-smallest entries in
// ascending order; its last slot, once it has k, is the threshold.  An
// accepted offer sorts before the threshold, so it lands in the head and
// pushes the old threshold out, onto the tail.  A node's threshold never
// rises, so the entries it pushes out arrive on the tail in descending
// canonical order, each above everything still in the head: the finished
// list is the head followed by the node's tail entries, latest first
// (freezePass).  All nodes share one tail, so an insertion searches and
// moves at most k slots and appends one record, however long the node's
// list has grown.  Heads grow on demand — most nodes of a sparse graph
// never hold k — so memory follows the entries, not n·k.  When several
// goroutines build, runBatches gives each node range a kernel over the
// same thresholds and heads with a tail of its own.

// offer is an entry for the sketch of node v that is not in v's head:
// logged by a traversal and not yet applied, or pushed out onto a tail.
type offer[H any] struct {
	key H
	v   int32
}

// pass is a finished pass's entries: node v's, in canonical order, are
// keys[off[v]:off[v+1]].
type pass[H any] struct {
	off  []int
	keys []H
}

// freezePass lays a pass out: every node's head, then its tail entries,
// latest first.  The parts' heads are shared, and tails[p] holds the tail
// entries of node range p (splitSpan), which each lays out on a goroutine
// of its own; a sequential pass has one.
func freezePass[H any](heads [][]H, tails []*offerLog[offer[H]]) pass[H] {
	n, parts := len(heads), len(tails)
	off := make([]int, n+1)
	fanOut(parts, func(p int) {
		lo, hi := splitSpan(p, parts, n)
		for v := lo; v < hi; v++ {
			off[v+1] = len(heads[v])
		}
		for tail, i := tails[p], 0; i < tail.n; i++ {
			off[tail.at(i).v+1]++
		}
	})
	for v := range n {
		off[v+1] += off[v]
	}
	keys := make([]H, off[n])
	next := slices.Clone(off[:n])
	fanOut(parts, func(p int) {
		lo, hi := splitSpan(p, parts, n)
		for v := lo; v < hi; v++ {
			next[v] += copy(keys[next[v]:], heads[v])
		}
		// Backwards through the tail is ascending order within every node.
		for tail, i := tails[p], tails[p].n-1; i >= 0; i-- {
			o := tail.at(i)
			keys[next[o.v]] = o.key
			next[o.v]++
		}
	})
	return pass[H]{off: off, keys: keys}
}

// An unweighted entry's key packs its hop count and node into one word,
// hop<<32 | node, whose integer order is the canonical (distance, node ID)
// order.  noKey is the threshold of a node holding fewer than k entries.
const noKey = math.MaxUint64

func keyNode(key uint64) int32 { return int32(uint32(key)) }

// hopState is the hop-count kernel: thresholds and heads of packed keys,
// and a BFS of its own.
type hopState struct {
	k     int
	tr    *graph.Graph
	thr   []uint64   // noKey while the node holds fewer than k entries
	heads [][]uint64 // grown on demand
	tail  offerLog[offer[uint64]]

	// The traversal's marks: seen[v] == epoch once v took this traversal's
	// entry.  A pass runs each candidate once, so epoch never wraps.
	seen  []uint32
	epoch uint32
	queue []int32
}

// runHops runs one pass of Algorithm 1 over the transpose tr of an
// unweighted graph — candidates cands in rank order, k entries a node —
// on workers kernels (runCands), and returns the pass and the number of
// offers its batches collected.
func runHops(tr *graph.Graph, cands []int32, ranks []float64, k, workers int) (pass[uint64], int) {
	n := tr.NumNodes()
	shared := hopState{k: k, tr: tr, thr: make([]uint64, n), heads: make([][]uint64, n)}
	for v := range shared.thr {
		shared.thr[v] = noKey
	}
	kerns := make([]kernel[offer[uint64]], workers)
	tails := make([]*offerLog[offer[uint64]], workers)
	for w := range kerns {
		part := shared // the columns shared, the (empty) tail and the marks its own
		part.seen = make([]uint32, n)
		kerns[w], tails[w] = &part, &part.tail
	}
	collected := runCands(kerns, cands, ranks, k)
	return freezePass(shared.heads, tails), collected
}

// traverse is u's pruned BFS, a level at a time.  u takes its own entry,
// at hop 0, which precedes every other key of its sketch.  A neighbour is
// tested when first reached, threshold first: one it rejects needs no
// mark, as any later arrival, at a larger hop, is rejected too, and only
// the nodes that take the entry are queued.
func (st *hopState) traverse(u int32, logs []offerLog[offer[uint64]]) {
	thr, seen := st.thr, st.seen
	st.epoch++
	seen[u] = st.epoch
	key := uint64(uint32(u))
	st.accept(u, key, thr[u], logs)
	q := append(st.queue[:0], u)
	for lo := 0; lo < len(q); {
		hi := len(q)
		key += 1 << 32
		for _, v := range q[lo:hi] {
			ns, _ := st.tr.Neighbors(v)
			for _, w := range ns {
				if t := thr[w]; key < t && seen[w] != st.epoch {
					seen[w] = st.epoch
					st.accept(w, key, t, logs)
					q = append(q, w)
				}
			}
		}
		lo = hi
	}
	st.queue = q
}

// accept inserts key, which precedes v's threshold t, into v's head — or,
// for a collecting traversal, logs it.
func (st *hopState) accept(v int32, key, t uint64, logs []offerLog[offer[uint64]]) {
	if logs != nil {
		logs[PartOf(v, len(logs), len(st.thr))].push(offer[uint64]{key: key, v: v})
		return
	}
	h := st.heads[v]
	if t != noKey {
		st.tail.push(offer[uint64]{key: t, v: v})
	} else {
		h = append(h, 0)
		st.heads[v] = h
	}
	i := len(h) - 1
	for i > 0 && key < h[i-1] {
		h[i] = h[i-1]
		i--
	}
	h[i] = key
	if len(h) == st.k {
		st.thr[v] = h[len(h)-1]
	}
}

func (st *hopState) apply(offers []offer[uint64], members int) {
	if members > 1 {
		slices.SortFunc(offers, func(a, b offer[uint64]) int {
			if c := cmp.Compare(a.v, b.v); c != 0 {
				return c
			}
			return cmp.Compare(a.key, b.key)
		})
	}
	for _, o := range offers {
		if t := st.thr[o.v]; o.key < t {
			st.accept(o.v, o.key, t, nil)
		}
	}
}

// lists returns a pass's entry lists, entry making each from its key,
// carved from one allocation.
func (ps pass[H]) lists(entry func(H) Entry) [][]Entry {
	arena := make([]Entry, len(ps.keys))
	out := make([][]Entry, len(ps.off)-1)
	for v := range out {
		lo, hi := ps.off[v], ps.off[v+1]
		for i, key := range ps.keys[lo:hi] {
			arena[lo+i] = entry(key)
		}
		out[v] = arena[lo:hi:hi]
	}
	return out
}

// hopFrame is BuildSetParallel's Algorithm 1 on an unweighted graph: the
// one pass of a uniform set of p, on workers, coded straight into the
// frame's lists from its keys, its node codes in the rank order the pass
// drew its candidates in, a node range a worker.
func hopFrame(g *graph.Graph, p Params, workers int) (*Frame, error) {
	n := g.NumNodes()
	cands, ranks := rank.Order(n, p.rankFn())
	workers = passWorkers(workers, n)
	ps, _ := runHops(g.Transpose(), cands, ranks, p.K, workers)
	steps := 0
	for v := range n {
		for j := ps.off[v]; j < ps.off[v+1]; j++ {
			if j == ps.off[v] || ps.keys[j]>>32 != ps.keys[j-1]>>32 {
				steps++
			}
		}
	}
	raw := make([]float64, 0, steps)
	for v := range n {
		for j := ps.off[v]; j < ps.off[v+1]; j++ {
			if j == ps.off[v] || ps.keys[j]>>32 != ps.keys[j-1]>>32 {
				raw = append(raw, float64(ps.keys[j]>>32))
			}
		}
	}
	f := newFrame(p, 0, n, n, int64(len(ps.keys)), raw, builtRankOrder(cands, ranks, newRanker(p)))
	err := f.codeNodes(f.node.order.positions(), f.codeBits(), workers, func(w *nodeWriter, v int) {
		keys := ps.keys[ps.off[v]:ps.off[v+1]]
		steps, last := 0, uint64(noKey)
		for _, key := range keys {
			if hop := key >> 32; hop != last {
				steps, last = steps+1, hop
			}
		}
		w.list(int32(v), len(keys), steps)
		last = noKey
		for _, key := range keys {
			if hop := key >> 32; hop != last {
				w.step(float64(hop))
				last = hop
			}
		}
		last = noKey
		for _, key := range keys {
			hop := key >> 32
			w.add(keyNode(key), hop != last)
			last = hop
		}
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// adsKey is a weighted entry's canonical sort key.
type adsKey struct {
	dist float64
	node int32
}

func (a adsKey) less(b adsKey) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.node < b.node)
}

// floatState is the float-distance kernel: thresholds and heads of
// (distance, node) keys, and a Dijkstra of its own.
type floatState struct {
	k     int
	thr   []adsKey // dist +Inf while the node holds fewer than k entries
	heads [][]adsKey
	tail  offerLog[offer[adsKey]]
	vis   *graph.Visitor
}

// runFloats is runHops over a weighted graph, returning the pass's entry
// lists with ranks attached.
func runFloats(tr *graph.Graph, cands []int32, ranks []float64, k, workers int) [][]Entry {
	n := tr.NumNodes()
	shared := floatState{k: k, thr: make([]adsKey, n), heads: make([][]adsKey, n)}
	for v := range shared.thr {
		shared.thr[v].dist = graph.Infinity
	}
	kerns := make([]kernel[offer[adsKey]], workers)
	tails := make([]*offerLog[offer[adsKey]], workers)
	for w := range kerns {
		part := shared
		part.vis = graph.NewVisitor(tr)
		kerns[w], tails[w] = &part, &part.tail
	}
	runCands(kerns, cands, ranks, k)
	return freezePass(shared.heads, tails).lists(func(e adsKey) Entry {
		return Entry{Node: e.node, Dist: e.dist, Rank: ranks[e.node]}
	})
}

func (st *floatState) traverse(u int32, logs []offerLog[offer[adsKey]]) {
	vis := st.vis
	vis.Start(u)
	for v, d, ok := vis.Next(); ok; v, d, ok = vis.Next() {
		if key := (adsKey{dist: d, node: u}); key.less(st.thr[v]) {
			st.accept(v, key, logs)
			vis.Expand(v, d)
		}
	}
}

// accept is hopState.accept over float keys.
func (st *floatState) accept(v int32, key adsKey, logs []offerLog[offer[adsKey]]) {
	if logs != nil {
		logs[PartOf(v, len(logs), len(st.thr))].push(offer[adsKey]{key: key, v: v})
		return
	}
	h := st.heads[v]
	if len(h) == st.k {
		st.tail.push(offer[adsKey]{key: h[st.k-1], v: v})
	} else {
		h = append(h, adsKey{})
		st.heads[v] = h
	}
	i := len(h) - 1
	for i > 0 && key.less(h[i-1]) {
		h[i] = h[i-1]
		i--
	}
	h[i] = key
	if len(h) == st.k {
		st.thr[v] = h[st.k-1]
	}
}

func (st *floatState) apply(offers []offer[adsKey], members int) {
	if members > 1 {
		slices.SortFunc(offers, func(a, b offer[adsKey]) int {
			if c := cmp.Compare(a.v, b.v); c != 0 {
				return c
			}
			if c := cmp.Compare(a.key.dist, b.key.dist); c != 0 {
				return c
			}
			return cmp.Compare(a.key.node, b.key.node)
		})
	}
	for _, o := range offers {
		if o.key.less(st.thr[o.v]) {
			st.accept(o.v, o.key, nil)
		}
	}
}
