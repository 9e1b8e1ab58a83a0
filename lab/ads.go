package lab

import (
	"fmt"

	"adsketch"
	"adsketch/internal/core"
	"adsketch/internal/rank"
	"adsketch/internal/sketch"
)

// The k-mins and k-partition All-Distances Sketches of Section 2, the two
// flavors the serving system does not build: adsketch.Build, its files and
// its Engine hold bottom-k sketches only.  Both keep, per permutation or
// per bucket, the prefix minima of the ranks along a node's canonical
// (distance, node ID) order — a bottom-1 ADS each — and both are core.
// Sketches, so core's HIP readouts (EstimateNeighborhoodHIP, EstimateQ)
// take them as they take a bottom-k one.

// KMinsADS is a k-mins All-Distances Sketch: k independent bottom-1 ADSs,
// one per permutation.  Each per-permutation list holds the prefix minima
// of that permutation's ranks along the canonical node order, so the
// minimum rank within any neighborhood N_d is the rank of the last entry
// with Dist <= d.
type KMinsADS struct {
	node  int32
	perms [][]core.Entry // perms[h]: bottom-1 ADS under permutation h
}

var _ core.Sketch = (*KMinsADS)(nil)

// NewKMinsADS returns an empty k-mins ADS owned by node.
func NewKMinsADS(node int32, k int) *KMinsADS {
	if k < 1 {
		panic("lab: k must be >= 1")
	}
	return &KMinsADS{node: node, perms: make([][]core.Entry, k)}
}

// BuildKMins returns the k-mins ADS of every node of g, full-precision
// ranks or, for baseB > 1, base-b ones: k bottom-1 adsketch.Builds, the
// one of permutation h under seed seed + h·0xa24baed4963ee407 + 1 — the
// seed of the h-th independent permutation of the rank source.
func BuildKMins(g *adsketch.Graph, k int, seed uint64, baseB float64) ([]*KMinsADS, error) {
	if k < 1 {
		return nil, fmt.Errorf("lab: BuildKMins with k = %d", k)
	}
	out := make([]*KMinsADS, g.NumNodes())
	for v := range out {
		out[v] = NewKMinsADS(int32(v), k)
	}
	for h := 0; h < k; h++ {
		opts := []adsketch.Option{adsketch.WithK(1), adsketch.WithSeed(seed + uint64(h)*0xa24baed4963ee407 + 1)}
		if baseB != 0 {
			opts = append(opts, adsketch.WithBaseB(baseB))
		}
		set, err := adsketch.Build(g, opts...)
		if err != nil {
			return nil, err
		}
		for v, a := range out {
			a.perms[h] = set.BottomK(int32(v)).Entries()
		}
	}
	return out, nil
}

// K returns the sketch parameter.
func (a *KMinsADS) K() int { return len(a.perms) }

// Node returns the owner.
func (a *KMinsADS) Node() int32 { return a.node }

// Size returns the total number of stored entries across permutations
// (the k-mins ADS size Lemma 2.2 bounds by k·H_n).
func (a *KMinsADS) Size() int { return totalLen(a.perms) }

// Perm returns the bottom-1 ADS of permutation h in canonical order.
func (a *KMinsADS) Perm(h int) []core.Entry { return a.perms[h] }

// OfferAt presents a candidate to permutation h's bottom-1 ADS; the
// candidate must come after all current entries of that permutation in
// canonical order.  It reports whether the entry was inserted (its rank
// strictly improved the running minimum).
func (a *KMinsADS) OfferAt(h int, e core.Entry) bool { return offerMin(&a.perms[h], e) }

// MinsWithin extracts the k-mins MinHash sketch of N_d: for each
// permutation, the minimum rank among entries with Dist <= d (1 when the
// neighborhood holds no entry of that permutation).
func (a *KMinsADS) MinsWithin(d float64) []float64 { return minsWithin(a.perms, d) }

// EstimateNeighborhood returns the basic k-mins estimate of n_d
// (Section 4.1) applied to the extracted MinHash sketch.
func (a *KMinsADS) EstimateNeighborhood(d float64) float64 {
	return sketch.KMinsEstimate(a.MinsWithin(d))
}

// HIPEntries computes adjusted weights by equation (7): scanning distinct
// nodes in canonical order while maintaining the running minimum rank m_h
// of each permutation over the nodes seen so far,
//
//	τ_vj = 1 - Π_h (1 - m_h),
//
// the probability that a fresh node beats at least one permutation's
// minimum.  A node appearing in several permutations' lists contributes a
// single entry, in canonical order.
func (a *KMinsADS) HIPEntries() []core.WeightedEntry {
	var out []core.WeightedEntry
	cursors := make([]int, len(a.perms))
	curMin := ones(len(a.perms))
	for {
		best := nextInOrder(a.perms, cursors)
		if best < 0 {
			break
		}
		e := a.perms[best][cursors[best]]
		// HIP probability before updating the minima with the entry itself.
		prod := 1.0
		for _, m := range curMin {
			prod *= 1 - m
		}
		tau := 1 - prod
		out = append(out, core.WeightedEntry{Node: e.Node, Dist: e.Dist, Weight: 1 / tau})
		// Consume the entry from every permutation where it appears (same
		// node can be the new minimum of several permutations at once).
		for h, p := range a.perms {
			if c := cursors[h]; c < len(p) && p[c].Node == e.Node && p[c].Dist == e.Dist {
				curMin[h] = p[c].Rank
				cursors[h]++
			}
		}
	}
	return out
}

// Validate checks per-permutation canonical order, the bottom-1 inclusion
// condition (strictly decreasing ranks), and that every list starts with
// the owner.
func (a *KMinsADS) Validate() error {
	for h, p := range a.perms {
		if err := validateMins(p); err != nil {
			return fmt.Errorf("lab: k-mins ADS(%d) perm %d %v", a.node, h, err)
		}
		if len(p) > 0 && (p[0].Node != a.node || p[0].Dist != 0) {
			return fmt.Errorf("lab: k-mins ADS(%d) perm %d does not start with owner", a.node, h)
		}
	}
	return nil
}

// KPartitionADS is a k-partition All-Distances Sketch (implicit in
// HyperANF): nodes are hashed into k buckets, and for each bucket the
// sketch keeps the prefix minima of ranks along the canonical order,
// restricted to nodes of that bucket.  A node belongs to exactly one
// bucket.
type KPartitionADS struct {
	node    int32
	buckets [][]core.Entry // buckets[b]: bottom-1 ADS over nodes with BUCKET=b
}

var _ core.Sketch = (*KPartitionADS)(nil)

// NewKPartitionADS returns an empty k-partition ADS owned by node.
func NewKPartitionADS(node int32, k int) *KPartitionADS {
	if k < 1 {
		panic("lab: k must be >= 1")
	}
	return &KPartitionADS{node: node, buckets: make([][]core.Entry, k)}
}

// BuildKPartition returns the k-partition ADS of every node of g under
// seed — full-precision ranks or, for baseB > 1, base-b ones — by
// definition: it offers every node reachable from v, in canonical order,
// to the bucket rank.Source.Bucket puts it in.  The order, distances and
// ranks are those of a bottom-n adsketch.Build, which holds every
// reachable node at the distance the library's Algorithm 1 computes: a
// reference builder, quadratic in the node count.
func BuildKPartition(g *adsketch.Graph, k int, seed uint64, baseB float64) ([]*KPartitionADS, error) {
	if k < 1 {
		return nil, fmt.Errorf("lab: BuildKPartition with k = %d", k)
	}
	n := g.NumNodes()
	opts := []adsketch.Option{adsketch.WithK(max(n, 1)), adsketch.WithSeed(seed)}
	if baseB != 0 {
		opts = append(opts, adsketch.WithBaseB(baseB))
	}
	all, err := adsketch.Build(g, opts...)
	if err != nil {
		return nil, err
	}
	src := rank.NewSource(seed)
	out := make([]*KPartitionADS, n)
	for v := range out {
		a := NewKPartitionADS(int32(v), k)
		for _, e := range all.BottomK(int32(v)).Entries() {
			a.OfferAt(bucket(src, int64(e.Node), k), e)
		}
		out[v] = a
	}
	return out, nil
}

// K returns the number of buckets.
func (a *KPartitionADS) K() int { return len(a.buckets) }

// Node returns the owner.
func (a *KPartitionADS) Node() int32 { return a.node }

// Size returns the total number of entries across buckets.
func (a *KPartitionADS) Size() int { return totalLen(a.buckets) }

// Bucket returns bucket b's entries in canonical order.
func (a *KPartitionADS) Bucket(b int) []core.Entry { return a.buckets[b] }

// OfferAt presents a candidate belonging to bucket b; the candidate must
// come after all current entries of that bucket in canonical order.  It
// reports whether the entry was inserted.
func (a *KPartitionADS) OfferAt(b int, e core.Entry) bool { return offerMin(&a.buckets[b], e) }

// MinsWithin extracts the k-partition MinHash sketch of N_d: the minimum
// rank per bucket among entries with Dist <= d (1 for empty buckets).
func (a *KPartitionADS) MinsWithin(d float64) []float64 { return minsWithin(a.buckets, d) }

// EstimateNeighborhood returns the basic k-partition estimate of n_d
// (Section 4.3) applied to the extracted MinHash sketch.
func (a *KPartitionADS) EstimateNeighborhood(d float64) float64 {
	return sketch.KPartitionEstimate(a.MinsWithin(d))
}

// HIPEntries computes adjusted weights by equation (8): scanning nodes in
// canonical order while maintaining the running minimum rank m_b of each
// bucket over nodes seen so far,
//
//	τ_vj = (1/k) Σ_b m_b,
//
// the inclusion probability of a fresh node under a uniform random bucket
// assignment and rank (empty buckets contribute m_b = 1).
func (a *KPartitionADS) HIPEntries() []core.WeightedEntry {
	var out []core.WeightedEntry
	k := len(a.buckets)
	cursors := make([]int, k)
	curMin := ones(k)
	sum := float64(k)
	for {
		best := nextInOrder(a.buckets, cursors)
		if best < 0 {
			break
		}
		e := a.buckets[best][cursors[best]]
		tau := sum / float64(k)
		out = append(out, core.WeightedEntry{Node: e.Node, Dist: e.Dist, Weight: 1 / tau})
		sum += e.Rank - curMin[best]
		curMin[best] = e.Rank
		cursors[best]++
	}
	return out
}

// Validate checks per-bucket canonical order and the bottom-1 inclusion
// condition.
func (a *KPartitionADS) Validate() error {
	for b, p := range a.buckets {
		if err := validateMins(p); err != nil {
			return fmt.Errorf("lab: k-partition ADS(%d) bucket %d %v", a.node, b, err)
		}
	}
	return nil
}

// before reports whether entry a precedes entry b in the canonical
// (distance, node ID) order.
func before(a, b core.Entry) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Node < b.Node
}

// offerMin appends e to the bottom-1 list *l — prefix minima in canonical
// order, which e must come after — when its rank is below the last one.
func offerMin(l *[]core.Entry, e core.Entry) bool {
	if n := len(*l); n > 0 {
		if last := (*l)[n-1]; !before(last, e) {
			panic(fmt.Sprintf("lab: OfferAt out of order: %+v after %+v", e, last))
		} else if e.Rank >= last.Rank {
			return false
		}
	}
	*l = append(*l, e)
	return true
}

// minsWithin returns each list's minimum rank among entries with Dist <=
// d, 1 where there is none: prefix minima decrease, so the last entry
// within d holds it.
func minsWithin(lists [][]core.Entry, d float64) []float64 {
	mins := ones(len(lists))
	for h, l := range lists {
		for _, e := range l {
			if e.Dist > d {
				break
			}
			mins[h] = e.Rank
		}
	}
	return mins
}

// nextInOrder returns the list whose cursor entry comes first in
// canonical order, or -1 when every cursor is past its list's end.
func nextInOrder(lists [][]core.Entry, cursors []int) int {
	best := -1
	for h, c := range cursors {
		if c < len(lists[h]) && (best < 0 || before(lists[h][c], lists[best][cursors[best]])) {
			best = h
		}
	}
	return best
}

// validateMins checks a bottom-1 list: canonical order, strictly
// decreasing ranks.
func validateMins(l []core.Entry) error {
	for i := 1; i < len(l); i++ {
		if !before(l[i-1], l[i]) {
			return fmt.Errorf("out of order at %d", i)
		}
		if l[i].Rank >= l[i-1].Rank {
			return fmt.Errorf("rank not decreasing at %d", i)
		}
	}
	return nil
}

func totalLen(lists [][]core.Entry) int {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	return n
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}
