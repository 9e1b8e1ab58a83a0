package core

import (
	"runtime"
	"sync"

	"adsketch/internal/graph"
)

// prunedDijkstraParallelRun is the Appendix B.4 parallelization of
// Algorithm 1: candidates, sorted by rank, are processed in batches; the
// traversals of one batch run concurrently, pruning only against the
// thresholds earlier batches left (strictly smaller ranks), which prunes
// less than the sequential algorithm but never incorrectly.  When a batch
// finishes, its collected offers are applied in rank order through the
// sequential builder's test; over-generated offers are rejected there, so
// the result is identical to the sequential construction.
//
// Correctness sketch: a batch candidate that belongs to the final ADS of v
// is never pruned on its way to v (its blockers would also block it at v);
// a candidate that reaches v but does not belong is rejected at
// reconciliation, which replays exactly the rank-order recursion the
// sequential builder performs (candidates missing because their traversal
// was pruned are ones the recursion would reject anyway).  The batch
// depth trades pruning efficiency for parallelism: each batch member's
// traversal misses at most batchSize-1 ranks of pruning state.
func prunedDijkstraParallelRun(g *graph.Graph, s runSpec, batchSize, workers int) [][]Entry {
	n := g.NumNodes()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if batchSize <= 0 {
		batchSize = 4 * workers
	}
	cands, ranks := s.rankOrder(n)
	st := newPruneState(n, s.k)
	tr := g.Transpose()

	// The workers live for the whole run.  Between a batch's sends and its
	// wg.Wait they only read st and each write their own offers slot; the
	// reconciliation below runs while they are parked on the channel.
	var offers [][]offer // offers[i]: what batch member i collected
	next := make(chan int)
	var wg, exited sync.WaitGroup
	var batch []int32
	for w := 0; w < workers; w++ {
		vis := graph.NewVisitor(tr)
		exited.Add(1)
		go func() {
			defer exited.Done()
			for i := range next {
				offers[i] = st.collect(vis, batch[i], offers[i][:0])
				wg.Done()
			}
		}()
	}

	var group []offer
	for start := 0; start < len(cands); {
		// Keep equal-rank groups inside one batch so that pre-batch
		// entries always have strictly smaller ranks.
		end := sameRankEnd(cands, ranks, min(start+batchSize, len(cands))-1)
		batch = cands[start:end]
		start = end
		for len(offers) < len(batch) {
			offers = append(offers, nil)
		}
		wg.Add(len(batch))
		for i := range batch {
			next <- i
		}
		wg.Wait()

		for i := 0; i < len(batch); {
			j := sameRankEnd(batch, ranks, i)
			if j == i+1 {
				st.apply(offers[i], 1)
			} else {
				group = group[:0]
				for _, o := range offers[i:j] {
					group = append(group, o...)
				}
				st.apply(group, j-i)
			}
			i = j
		}
	}
	close(next)
	exited.Wait()
	return st.freeze(ranks)
}
