package cluster

import (
	"fmt"
	"sort"
)

// Ranked is one node with its centrality score.  The JSON tags are the
// wire shape of the ranking entries served by the query protocol.
type Ranked struct {
	Node  int32   `json:"node"`
	Score float64 `json:"score"`
}

// MergeScores gathers per-shard partial score vectors back into request
// order: partial[i][j] is the score of subs[i].Nodes[j] and lands at
// position subs[i].Pos[j] of the merged vector.  ok[i] reports whether
// subs[i] answered; a failed shard's positions stay 0 and are returned in
// missing (original request positions, ascending; nil when every shard
// answered).  Because each score is a per-node value computed from that
// node's sketch alone, a merge with every shard ok equals the single-set
// batch bit-for-bit.
func MergeScores(n int, subs []Sub, partial [][]float64, ok []bool) (scores []float64, missing []int, err error) {
	scores = make([]float64, n)
	filled := 0
	for i, sub := range subs {
		if !ok[i] {
			missing = append(missing, sub.Pos...)
			continue
		}
		if len(partial[i]) != len(sub.Nodes) {
			return nil, nil, fmt.Errorf("cluster: shard %d returned %d scores for %d nodes", sub.Shard, len(partial[i]), len(sub.Nodes))
		}
		for j, pos := range sub.Pos {
			scores[pos] = partial[i][j]
			filled++
		}
	}
	if filled+len(missing) != n {
		return nil, nil, fmt.Errorf("cluster: merged %d of %d scores (%d missing)", filled, n, len(missing))
	}
	sort.Ints(missing)
	return scores, missing, nil
}

// MergeTopK merges per-shard top-k rankings into the global top-k, in
// ranking order: descending score, ties broken by ascending node ID —
// the exact order of the single-set bounded-heap selection.  Each shard
// list must itself hold the shard's top min(k, owned) nodes; then the
// union of the lists contains every global top-k member, and the merge
// is exhaustive.
func MergeTopK(k int, lists [][]Ranked) []Ranked {
	var all []Ranked
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Node < all[j].Node
	})
	if k > len(all) {
		k = len(all)
	}
	if k < 0 {
		k = 0
	}
	return all[:k:k]
}
