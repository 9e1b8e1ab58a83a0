package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"adsketch/internal/graph"
)

// definitionalADS is equation (4) read literally over (node, dist) pairs in
// canonical order: a node is included iff fewer than k of all the nodes
// preceding it — members or not — have a rank at most its own.  No heap.
func definitionalADS(pairs []Entry, k int) []Entry {
	var out []Entry
	for i, e := range pairs {
		atMost := 0
		for _, p := range pairs[:i] {
			if p.Rank <= e.Rank {
				atMost++
			}
		}
		if atMost < k {
			out = append(out, e)
		}
	}
	return out
}

// TestOfferKernelProperty feeds the exact kernel every (node, dist) pair of
// a random graph node's reachable set in random order, salted with
// duplicates of the same node at equal and larger distances — so a held
// node is offered again closer, as close and farther — through Scan and
// Apply, the two steps Offer composes, and checks after every offer that
// the list is the definitional bottom-k ADS of the smallest distance
// offered so far per node, that Apply's eviction count is the number of
// nodes that left the list, that an offer Scan admits changes the list,
// and that a β column stays parallel to the entries.
func TestOfferKernelProperty(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 30
	}
	cases := []struct {
		k        int
		baseB    float64 // 2: rounded ranks, so rank ties are common
		weighted bool    // carry a β column
	}{
		{1, 0, false}, {2, 0, true}, {4, 0, false},
		{1, 2, true}, {2, 2, false}, {4, 2, true},
	}
	betaOf := func(node int32) float64 { return 0.5 + float64(node%5) }
	for _, c := range cases {
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			g := graph.RandomSmall(rng)
			rk := Options{K: c.k, Seed: uint64(trial), BaseB: c.baseB}.rankFn()
			var offers []Entry
			for _, nd := range graph.NearestOrder(g, int32(rng.Intn(g.NumNodes()))) {
				e := Entry{Node: nd.Node, Dist: nd.Dist, Rank: rk(nd.Node)}
				offers = append(offers, e)
				for dup := rng.Intn(3); dup > 0; dup-- {
					e.Dist = nd.Dist + float64(rng.Intn(3)) // tied distances stay likely
					offers = append(offers, e)
				}
			}
			rng.Shuffle(len(offers), func(i, j int) { offers[i], offers[j] = offers[j], offers[i] })

			desc := fmt.Sprintf("k=%d b=%g weighted=%v trial %d", c.k, c.baseB, c.weighted, trial)
			kern := NewOfferKernel(c.k)
			var list []Entry
			var betas []float64
			if c.weighted {
				betas = []float64{}
			}
			best := map[int32]Entry{} // smallest distance offered so far, per node
			for step, e := range offers {
				before := slices.Clone(list)
				evicted := 0
				pos, old, changed := kern.Scan(list, e)
				if changed {
					list, betas, evicted = kern.Apply(list, betas, pos, old, e, betaOf(e.Node))
				}

				if b, seen := best[e.Node]; !seen || e.Dist < b.Dist {
					best[e.Node] = e
				}
				pairs := make([]Entry, 0, len(best))
				for _, b := range best {
					pairs = append(pairs, b)
				}
				slices.SortFunc(pairs, func(a, b Entry) int {
					if a.before(b) {
						return -1
					}
					return 1
				})
				if want := definitionalADS(pairs, c.k); !slices.Equal(list, want) {
					t.Fatalf("%s step %d, offer %+v:\ngot  %v\nwant %v", desc, step, e, list, want)
				}

				lost := 0
				for _, b := range before {
					if !slices.ContainsFunc(list, func(x Entry) bool { return x.Node == b.Node }) {
						lost++
					}
				}
				if evicted != lost {
					t.Fatalf("%s step %d: evicted = %d, but %d nodes left the list", desc, step, evicted, lost)
				}
				if changed != !slices.Equal(before, list) {
					t.Fatalf("%s step %d: changed = %v, list %v -> %v", desc, step, changed, before, list)
				}
				if !c.weighted && betas != nil {
					t.Fatalf("%s step %d: a β column appeared: %v", desc, step, betas)
				}
				if c.weighted {
					if len(betas) != len(list) {
						t.Fatalf("%s step %d: %d betas beside %d entries", desc, step, len(betas), len(list))
					}
					for i, x := range list {
						if betas[i] != betaOf(x.Node) {
							t.Fatalf("%s step %d: beta[%d] = %g beside node %d", desc, step, i, betas[i], x.Node)
						}
					}
				}
			}
		}
	}
}
