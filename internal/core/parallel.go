package core

import (
	"slices"
	"sync"
	"sync/atomic"
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

// kernel is one worker's handle on an Algorithm 1 pass under construction,
// the part of it that differs between hop counts and float distances: its
// offers are of type O.  The candidate loops (runCands, runBatches) drive
// it and nothing else.
type kernel[O any] interface {
	// traverse runs candidate u's pruned traversal: every node it reaches
	// takes the entry and is expanded, or prunes the search there.  With
	// nil logs the entries are inserted as they are found; otherwise each
	// is logged for node v under v's partition of len(logs) node ranges
	// and the state is left untouched — pruning against fewer entries than
	// an insertion would leave, never wrongly, and apply rejects the
	// surplus.
	traverse(u int32, logs []offerLog[O])
	// apply replays the logged offers of members equal-rank candidates
	// through the insertion test.  Under the strict-inequality inclusion
	// rule an equal-rank entry blocks an offer exactly when it precedes it
	// canonically, so a node's offers are replayed in canonical order; one
	// candidate's offers go to distinct nodes and need no ordering.
	apply(offers []O, members int)
}

// runCands is Algorithm 1's candidate loop over a pass's kernels, one per
// worker: on the calling goroutine for one (each candidate traverses in
// rank order, an equal-rank group against the group's pre-group state,
// applied when the group finishes), runBatches for more.  Both give the
// same state.  It returns the offers the batches collected.
func runCands[O any](parts []kernel[O], cands []int32, ranks []float64, k int) int {
	if len(parts) > 1 {
		return runBatches(parts, cands, ranks, k)
	}
	st, log := parts[0], make([]offerLog[O], 1)
	var group []O
	for i := 0; i < len(cands); {
		j := sameRankEnd(cands, ranks, i)
		if j == i+1 {
			// Full-precision ranks are unique: the common case.
			st.traverse(cands[i], nil)
		} else {
			log[0].reset()
			for _, u := range cands[i:j] {
				st.traverse(u, log)
			}
			group = log[0].appendTo(group[:0], 0, log[0].n)
			st.apply(group, j-i)
		}
		i = j
	}
	return 0
}

// offerLog is a sequence of offers in push order, held in chunks of
// logChunk records — not one appended slice, because growing a slice this
// long by copying would allocate several times its final size — which
// reset keeps, so a log refilled every batch allocates its fullest.
type offerLog[O any] struct {
	chunks [][]O
	n      int // offers held: chunks[i>>logShift][i&(logChunk-1)] for i < n
}

const (
	logShift = 8
	logChunk = 1 << logShift
)

func (l *offerLog[O]) push(o O) {
	c := l.n >> logShift
	if c == len(l.chunks) {
		l.chunks = append(l.chunks, make([]O, logChunk))
	}
	l.chunks[c][l.n&(logChunk-1)] = o
	l.n++
}

func (l *offerLog[O]) at(i int) O { return l.chunks[i>>logShift][i&(logChunk-1)] }

func (l *offerLog[O]) reset() { l.n = 0 }

// appendTo appends the offers at positions [lo, hi) to dst.
func (l *offerLog[O]) appendTo(dst []O, lo, hi int) []O {
	for lo < hi {
		i := lo & (logChunk - 1)
		end := min(logChunk, i+hi-lo)
		dst = append(dst, l.chunks[lo>>logShift][i:end]...)
		lo += end - i
	}
	return dst
}

// span is the part of worker w's offer log for one partition that one batch
// member wrote.
type span struct{ w, lo, hi int }

// runBatches is Algorithm 1's candidate loop on several goroutines: the
// Appendix B.4 idea — traverse a batch of candidates concurrently against
// the thresholds earlier batches left, then reconcile — with the
// reconciliation partitioned too.  parts[w] is worker w's kernel in the
// first phase and the kernel of node range w (nodeRange) in the second;
// all of them share the thresholds and heads.  Each batch (batchEnd) has
// two phases:
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
// It returns the number of offers collected.
func runBatches[O any](parts []kernel[O], cands []int32, ranks []float64, k int) (collected int) {
	workers := len(parts)
	logs := make([][]offerLog[O], workers) // logs[w][p]: what worker w collected for partition p, this batch
	for w := range logs {
		logs[w] = make([]offerLog[O], workers)
	}
	var spans []span               // spans[i*workers+p]: batch member i's offers for partition p
	groups := make([][]O, workers) // per partition: the offers of one equal-rank group, mostly of one member, gathered
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
			parts[w].traverse(batch[i], log)
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
	return collected
}
