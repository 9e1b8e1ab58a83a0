package core

import (
	"bytes"
	"testing"

	"adsketch/internal/graph"
)

// frameLists pulls per-node entry lists (and the parallel β column when
// present) back out of a frozen frame's node range [lo, hi) — the raw
// material a distributed worker would have maintained for that range.
func frameLists(f *Frame, lo, hi int) (lists [][]Entry, betas [][]float64) {
	for v := lo; v < hi; v++ {
		c := f.colsAt(v)
		lists = append(lists, c.entries())
		betas = append(betas, append([]float64(nil), c.beta...))
	}
	return lists, betas
}

// TestFreezePartitionByteParity pins the central distributed-build
// invariant: freezing a node range's entry lists directly into a
// partition serializes byte-identically to building the whole set and
// slicing it with SplitSketchSet.
func TestFreezePartitionByteParity(t *testing.T) {
	g := graph.GNP(60, 0.08, false, 7)
	wg := graph.WithRandomWeights(g, 0.25, 4.0, 11)
	beta := make([]float64, 60)
	for i := range beta {
		beta[i] = 0.5 + float64(i%7)
	}

	uni, err := BuildSet(g, Options{K: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	wtd, err := BuildWeightedSet(wg, 8, 42, beta)
	if err != nil {
		t.Fatal(err)
	}
	apx := approxFixture(t, "gnp60_k8") // of g

	for _, tc := range []struct {
		name string
		set  *Set
	}{{"uniform", uni}, {"weighted", wtd}, {"approx", apx}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, count := range []int{1, 3, 4} {
				parts, err := SplitSketchSet(tc.set, count)
				if err != nil {
					t.Fatal(err)
				}
				for index, want := range parts {
					lists, betas := frameLists(tc.set.frame, int(want.Lo()), int(want.Hi()))
					got, err := FreezePartition(tc.set.Params(), index, count, 60, lists, betas)
					if err != nil {
						t.Fatalf("count=%d index=%d: %v", count, index, err)
					}
					var wb, gb bytes.Buffer
					if _, err := want.WriteTo(&wb); err != nil {
						t.Fatal(err)
					}
					if _, err := got.WriteTo(&gb); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
						t.Fatalf("count=%d index=%d: frozen partition bytes differ from SplitSketchSet slice (%d vs %d bytes)",
							count, index, gb.Len(), wb.Len())
					}
				}
			}
		})
	}
}

// TestFreezePartitionRejects covers the validation edges: bad ranges,
// wrong list counts, and malformed entry lists.
func TestFreezePartitionRejects(t *testing.T) {
	o := Options{K: 2, Seed: 1}
	uniform := Params{Kind: KindUniform, Options: o}
	approx := func(eps float64) Params { return Params{Kind: KindApprox, Options: Options{K: 2, Seed: 1}, Eps: eps} }
	good := [][]Entry{{{Node: 0, Dist: 0, Rank: 0.5}}}
	if _, err := FreezePartition(uniform, 0, 0, 4, good, nil); err == nil {
		t.Error("count=0 accepted")
	}
	if _, err := FreezePartition(uniform, 2, 2, 4, good, nil); err == nil {
		t.Error("index out of range accepted")
	}
	if _, err := FreezePartition(uniform, 0, 2, 4, good, nil); err == nil {
		t.Error("wrong list count accepted (1 list for a 2-node range)")
	}
	if _, err := FreezePartition(approx(-0.5), 0, 4, 4, good, nil); err == nil {
		t.Error("negative epsilon accepted")
	}
	bad := [][]Entry{{{Node: 3, Dist: 1, Rank: 0.5}}} // node 0's list must start with itself
	if _, err := FreezePartition(approx(0.1), 0, 4, 4, bad, nil); err == nil {
		t.Error("list not starting with owner accepted")
	}
	weighted := Params{Kind: KindWeighted, Options: Options{K: 2, Seed: 1}}
	if _, err := FreezePartition(weighted, 0, 4, 4, good, [][]float64{}); err == nil {
		t.Error("mismatched beta list count accepted")
	}
	if _, err := FreezePartition(Params{Kind: KindApprox, Options: o, Scheme: PriorityWeights}, 0, 4, 4, good, nil); err == nil {
		t.Error("an approximate set with a weight scheme accepted")
	}
}
