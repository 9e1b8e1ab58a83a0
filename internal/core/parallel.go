package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"adsketch/internal/graph"
)

// fanOut runs fn(0) ... fn(p-1) concurrently — fn(0) on the calling
// goroutine, so one worker starts none — and returns when all have.
func fanOut(p int, fn func(w int)) {
	var wg sync.WaitGroup
	for w := 1; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	fn(0)
	wg.Wait()
}

// fanOutItems runs fn(w, i) for every i in [0, n), each taken by whichever of
// p workers (fanOut) is free next.
func fanOutItems(p, n int, fn func(w, i int)) {
	var next atomic.Int64
	fanOut(p, func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(w, i)
		}
	})
}

// nodeRange returns the node range [lo, hi) of partition p of a parts-way
// split of n nodes — the i·n/P arithmetic of SplitSketchSet.
func nodeRange(p, parts, n int) (lo, hi int) { return p * n / parts, (p + 1) * n / parts }

// partOf returns the partition of that split whose range holds node v.
func partOf(v int32, parts, n int) int {
	return int(((int64(v)+1)*int64(parts) - 1) / int64(n))
}

// batchEnd returns the end of the batch of rank-ordered candidates that
// starts at position start.  The first batch is the first k candidates —
// no node prunes before it holds k entries, so traversing them against
// empty thresholds wastes nothing — and a later one adds a quarter of what
// came before (at least k): batches, each two barriers, number the
// logarithm of the candidates, and a member still sees four fifths of the
// pruning state the sequential order would show it.  Equal-rank groups are
// kept whole, so that the entries a batch finds in place have strictly
// smaller ranks.  The rule reads nothing but the position: the batches, and
// the offers collected, are the same for every worker count.
func batchEnd(cands []int32, ranks []float64, k, start int) int {
	end := start + max(k, start/4)
	if end >= len(cands) {
		return len(cands)
	}
	return sameRankEnd(cands, ranks, end-1)
}

// span is the part of worker w's offer log for one partition that one batch
// member wrote.
type span struct{ w, lo, hi int }

// runBatches is Algorithm 1's candidate loop on several goroutines: the
// Appendix B.4 idea — traverse a batch of candidates concurrently against
// the thresholds earlier batches left, then reconcile — with the
// reconciliation partitioned too.  Each batch (batchEnd) has two phases:
//
//  1. workers take members off a shared counter and collect their
//     traversals against the pre-batch thresholds, which nobody writes
//     meanwhile, logging every accepted offer under the partition of the
//     node it is for;
//  2. worker p replays, in rank order, the offers addressed to its own
//     node range through the sequential test (apply), so a node's
//     threshold, head and tail entries are only ever written by one
//     goroutine.
//
// A member pruned against stale thresholds reaches more nodes than the
// sequential traversal would, never fewer — an entry that belongs in the
// final sketch of v is not pruned on its way there (what blocks it on the
// way blocks it at v) — and phase 2, the rank-order recursion of the
// sequential loop, rejects the surplus: the result is the sequential one.
// It returns the per-partition states — shared thresholds and heads, a tail
// each — for freezeParts, and the number of offers collected.
func runBatches(tr *graph.Graph, cands []int32, ranks []float64, k, workers int) (parts []*pruneState, collected int) {
	n := tr.NumNodes()
	st := newPruneState(n, k)
	parts = make([]*pruneState, workers)
	vis := make([]*graph.Visitor, workers)
	logs := make([][]offerLog, workers) // logs[w][p]: what worker w collected for partition p, this batch
	for w := range parts {
		part := *st // the columns shared, the (empty) tail its own
		parts[w] = &part
		vis[w] = graph.NewVisitor(tr)
		logs[w] = make([]offerLog, workers)
	}
	var spans []span                   // spans[i*workers+p]: batch member i's offers for partition p
	groups := make([][]offer, workers) // per partition: the offers of one equal-rank group, mostly of one member, gathered
	for start := 0; start < len(cands); {
		end := batchEnd(cands, ranks, k, start)
		batch := cands[start:end]
		start = end
		spans = slices.Grow(spans[:0], len(batch)*workers)[:len(batch)*workers]

		fanOutItems(workers, len(batch), func(w, i int) {
			log, sp := logs[w], spans[i*workers:(i+1)*workers]
			for p := range log {
				sp[p] = span{w: w, lo: log[p].n}
			}
			parts[w].collect(vis[w], batch[i], log)
			for p := range log {
				sp[p].hi = log[p].n
			}
		})
		for _, sp := range spans {
			collected += sp.hi - sp.lo
		}

		fanOut(workers, func(p int) {
			group := groups[p]
			for i := 0; i < len(batch); {
				j := sameRankEnd(batch, ranks, i)
				group = group[:0]
				for m := i; m < j; m++ {
					sp := spans[m*workers+p]
					group = logs[sp.w][p].appendTo(group, sp.lo, sp.hi)
				}
				parts[p].apply(group, j-i)
				i = j
			}
			groups[p] = group
			for w := range logs {
				logs[w][p].reset()
			}
		})
	}
	return parts, collected
}

// freezeParts returns every node's entries in canonical order with ranks
// attached, carved from one allocation.  parts share their heads and hold
// the tail entries of one node range each (nodeRange), which each walks on
// a goroutine of its own; a sequential pass has one part.
func freezeParts(parts []*pruneState, ranks []float64) [][]Entry {
	heads := parts[0].heads
	n := len(heads)
	size := make([]int, n)
	fanOut(len(parts), func(p int) {
		lo, hi := nodeRange(p, len(parts), n)
		for v := lo; v < hi; v++ {
			size[v] = len(heads[v])
		}
		for tail, i := &parts[p].tail, 0; i < tail.n; i++ {
			size[tail.at(i).v]++
		}
	})
	total := 0
	for _, s := range size {
		total += s
	}
	arena := make([]Entry, total)
	out := make([][]Entry, n)
	for v, s := range size {
		out[v], arena = arena[:0:s], arena[s:]
	}
	fanOut(len(parts), func(p int) {
		lo, hi := nodeRange(p, len(parts), n)
		for v := lo; v < hi; v++ {
			for _, e := range heads[v] {
				out[v] = append(out[v], Entry{Node: e.node, Dist: e.dist, Rank: ranks[e.node]})
			}
		}
		// Backwards through the tail is ascending order within every node.
		for tail, i := &parts[p].tail, parts[p].tail.n-1; i >= 0; i-- {
			o := tail.at(i)
			out[o.v] = append(out[o.v], Entry{Node: o.node, Dist: o.dist, Rank: ranks[o.node]})
		}
	})
	return out
}
