package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"adsketch/internal/graph"
	"adsketch/internal/rank"
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

func canonicalCmp(a, b Entry) int {
	switch {
	case a.before(b):
		return -1
	case b.before(a):
		return 1
	}
	return 0
}

// mergeCheck drives one kernel over a stream of batches and checks every
// merge against the definition.
type mergeCheck struct {
	k      int
	kern   OfferKernel
	list   []Entry
	betas  []float64       // nil unless the stream carries a β column
	best   map[int32]Entry // smallest distance offered so far, per node
	betaOf func(int32) float64
}

func newMergeCheck(k int, weighted bool) *mergeCheck {
	c := &mergeCheck{k: k, kern: NewOfferKernel(k), best: map[int32]Entry{},
		betaOf: func(node int32) float64 { return 0.5 + float64(node%5) }}
	if weighted {
		c.betas = []float64{}
	}
	return c
}

// merge sorts batch into canonical order, merges it, and checks that the
// list is the definitional bottom-k ADS of the smallest distance offered
// so far per node, that the eviction count is the number of nodes that
// left the list, that the accepted entries are exactly the list's new
// entries, in order, and that a β column stays parallel to the entries.
// It returns a description of the first failure, or "".
func (c *mergeCheck) merge(batch []Entry) string {
	slices.SortStableFunc(batch, canonicalCmp)
	var batchBetas []float64
	if c.betas != nil {
		for _, e := range batch {
			batchBetas = append(batchBetas, c.betaOf(e.Node))
		}
	}
	before := slices.Clone(c.list)
	examined := c.kern.Examined
	var accepted []int
	var evicted int
	c.list, c.betas, accepted, evicted = c.kern.Merge(c.list, c.betas, batch, batchBetas)
	if got := c.kern.Examined - examined; got < int64(len(batch)) || got > int64(len(batch)+len(before)) {
		return fmt.Sprintf("examined %d entries of a %d-entry batch and a %d-entry list", got, len(batch), len(before))
	}

	for _, e := range batch {
		if b, seen := c.best[e.Node]; !seen || e.Dist < b.Dist {
			c.best[e.Node] = e
		}
	}
	pairs := make([]Entry, 0, len(c.best))
	for _, b := range c.best {
		pairs = append(pairs, b)
	}
	slices.SortFunc(pairs, canonicalCmp)
	if want := definitionalADS(pairs, c.k); !slices.Equal(c.list, want) {
		return fmt.Sprintf("merge of %v into %v:\ngot  %v\nwant %v", batch, before, c.list, want)
	}

	lost := 0
	for _, b := range before {
		if !slices.ContainsFunc(c.list, func(x Entry) bool { return x.Node == b.Node }) {
			lost++
		}
	}
	if evicted != lost {
		return fmt.Sprintf("merge of %v into %v: evicted = %d, but %d nodes left the list", batch, before, evicted, lost)
	}
	var fresh, took []Entry
	for _, x := range c.list {
		if !slices.Contains(before, x) {
			fresh = append(fresh, x)
		}
	}
	for _, at := range accepted {
		took = append(took, batch[at])
	}
	if !slices.Equal(took, fresh) {
		return fmt.Sprintf("merge of %v into %v: accepted %v, but the new entries are %v", batch, before, took, fresh)
	}
	if c.betas != nil {
		if len(c.betas) != len(c.list) {
			return fmt.Sprintf("%d betas beside %d entries", len(c.betas), len(c.list))
		}
		for i, x := range c.list {
			if c.betas[i] != c.betaOf(x.Node) {
				return fmt.Sprintf("beta[%d] = %g beside node %d", i, c.betas[i], x.Node)
			}
		}
	}
	return ""
}

// TestOfferKernelProperty feeds Merge every (node, dist) pair of a random
// graph node's reachable set in random order, salted with duplicates of
// the same node at equal and larger distances — so a held node is offered
// again closer, as close and farther, and one batch may name a node twice
// — cut into canonical batches of random sizes, from singletons (the
// sequential offers) to the whole stream at once, and checks each merge
// against the definition (mergeCheck).
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
			mc := newMergeCheck(c.k, c.weighted)
			for step := 0; len(offers) > 0; step++ {
				var size int
				switch trial % 3 {
				case 0:
					size = 1 // one offer at a time
				case 1:
					size = 1 + rng.Intn(len(offers))
				default:
					size = len(offers) // the whole stream at once
				}
				if msg := mc.merge(offers[:size]); msg != "" {
					t.Fatalf("%s step %d: %s", desc, step, msg)
				}
				offers = offers[size:]
			}
		}
	}
}

// FuzzOfferKernelMerge merges fuzzed batches over a small node and
// distance range, so that repeated nodes, re-offers at every distance and
// equal-distance ties are common, under full-precision or base-2 ranks,
// with or without a β column, and checks each merge against the
// definition (mergeCheck).
func FuzzOfferKernelMerge(f *testing.F) {
	f.Add(uint8(2), []byte{0x01, 0x12, 0x23, 0x80, 0x31, 0x05, 0x80, 0x14, 0x26})
	f.Add(uint8(0x81), []byte{0x00, 0x11, 0x11, 0x22, 0x80, 0x21, 0x10, 0x33, 0x44, 0x80, 0x02})
	f.Add(uint8(0x43), []byte{0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 0x00})
	f.Fuzz(func(t *testing.T, params uint8, data []byte) {
		k := 1 + int(params&3)
		var src rank.Source = rank.NewSource(uint64(params))
		rk := func(node int32) float64 { return src.Rank(int64(node)) }
		if params&0x80 != 0 {
			base := rank.NewBaseB(2)
			rk = func(node int32) float64 { return base.Round(src.Rank(int64(node))) }
		}
		mc := newMergeCheck(k, params&0x40 != 0)
		var batch []Entry
		flush := func() {
			if msg := mc.merge(batch); msg != "" {
				t.Fatal(msg)
			}
			batch = batch[:0]
		}
		for _, b := range data {
			if b == 0x80 {
				flush()
				continue
			}
			node := int32(b & 0xf)
			batch = append(batch, Entry{Node: node, Dist: float64(b >> 4 & 7), Rank: rk(node)})
		}
		flush()
	})
}
