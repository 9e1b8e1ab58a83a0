package cluster

import "adsketch/internal/core"

// Sub is one shard's slice of a scattered node batch: the nodes routed
// to Shard and, parallel to them, each node's position in the original
// request, so the gathered partials land back in request order.
type Sub struct {
	Shard int
	Nodes []int32
	Pos   []int
}

// Plan routes a node batch over a parts-way split of total nodes: it
// groups the nodes by owning partition (core.PartOf), preserving request
// order within each group, with groups ordered by first appearance.
// Every node must be in [0, total).
func Plan(nodes []int32, parts, total int) []Sub {
	var subs []Sub
	at := make([]int, parts) // partition -> 1 + its index into subs
	for i, v := range nodes {
		p := core.PartOf(v, parts, total)
		if at[p] == 0 {
			subs = append(subs, Sub{Shard: p})
			at[p] = len(subs)
		}
		s := &subs[at[p]-1]
		s.Nodes = append(s.Nodes, v)
		s.Pos = append(s.Pos, i)
	}
	return subs
}
