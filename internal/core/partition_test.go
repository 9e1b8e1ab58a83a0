package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"adsketch/internal/graph"
	"adsketch/internal/sketch"
)

func buildUniform(t *testing.T, o Options) *Set {
	t.Helper()
	g := graph.PreferentialAttachment(150, 3, 5)
	set, err := BuildSet(g, o, AlgoPrunedDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// splitKinds builds one set of every kind for the split/merge tests.
func splitKinds(t *testing.T) map[string]*Set {
	t.Helper()
	g := graph.PreferentialAttachment(150, 3, 5)
	uniform, err := BuildSet(g, Options{K: 8, Seed: 42}, AlgoPrunedDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	beta := make([]float64, g.NumNodes())
	for i := range beta {
		beta[i] = 1 + float64(i%5)
	}
	weighted, err := BuildWeightedSet(g, 8, 42, beta)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := BuildApproxSet(g, 8, 42, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Set{"uniform": uniform, "weighted": weighted, "approx": approx}
}

// A split must cover every node exactly once, alias the original
// sketches, and merge back into a set serializing bit-for-bit like the
// original — for every set kind.
func TestSplitMergeRoundTrip(t *testing.T) {
	for kind, set := range splitKinds(t) {
		t.Run(kind, func(t *testing.T) {
			original := v3Bytes(t, set)
			for _, p := range []int{1, 3, 4, 150} {
				parts, err := SplitSketchSet(set, p)
				if err != nil {
					t.Fatalf("split %d: %v", p, err)
				}
				if len(parts) != p {
					t.Fatalf("split %d: got %d parts", p, len(parts))
				}
				covered := 0
				for i, part := range parts {
					if index, count := part.Part(); !part.IsPartition() || index != i || count != p || part.TotalNodes() != set.NumNodes() {
						t.Fatalf("split %d part %d header: %+v", p, i, part)
					}
					covered += part.NumNodes()
					for v := part.Lo(); v < part.Hi(); v++ {
						sk := part.SketchOf(v - part.Lo())
						// Sketches are views over the split frame's shared
						// columns; the partition's view must read exactly
						// what the whole set's does.
						if sk.Node() != v || !reflect.DeepEqual(sk.HIPEntries(), set.SketchOf(v).HIPEntries()) {
							t.Fatalf("split %d: partition sketch of node %d is not the original", p, v)
						}
					}
				}
				if covered != set.NumNodes() {
					t.Fatalf("split %d covers %d of %d nodes", p, covered, set.NumNodes())
				}
				// Merge in scrambled order.
				scrambled := make([]*Set, len(parts))
				for i, part := range parts {
					scrambled[(i*7+3)%len(parts)] = part
				}
				merged, err := MergeSketchSets(scrambled)
				if err != nil {
					t.Fatalf("merge %d: %v", p, err)
				}
				if got := v3Bytes(t, merged); !bytes.Equal(got, original) {
					t.Fatalf("split %d: merged serialization differs from original (%d vs %d bytes)", p, len(got), len(original))
				}
			}
		})
	}
}

// Partition files must round trip through the codec, preserving header
// and sketches, then merge bit-for-bit.
func TestPartitionCodecRoundTrip(t *testing.T) {
	for kind, set := range splitKinds(t) {
		t.Run(kind, func(t *testing.T) {
			original := v3Bytes(t, set)
			parts, err := SplitSketchSet(set, 4)
			if err != nil {
				t.Fatal(err)
			}
			loaded := make([]*Set, len(parts))
			for i, part := range parts {
				var buf bytes.Buffer
				if _, err := part.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				p2, err := ReadSketchSet(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("partition %d: %v", i, err)
				}
				i2, c2 := p2.Part()
				if index, count := part.Part(); !p2.IsPartition() || i2 != index || c2 != count ||
					p2.Lo() != part.Lo() || p2.Hi() != part.Hi() || p2.TotalNodes() != part.TotalNodes() {
					t.Fatalf("partition %d header changed across codec: %+v vs %+v", i, p2, part)
				}
				// The re-encoded partition must be byte-identical too.
				var buf2 bytes.Buffer
				if _, err := p2.WriteTo(&buf2); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
					t.Fatalf("partition %d re-serialization differs", i)
				}
				loaded[i] = p2
			}
			merged, err := MergeSketchSets(loaded)
			if err != nil {
				t.Fatal(err)
			}
			if got := v3Bytes(t, merged); !bytes.Equal(got, original) {
				t.Fatal("codec round trip + merge differs from original serialization")
			}
		})
	}
}

// Uniform flavors beyond bottom-k must survive the partition codec too.
func TestPartitionCodecFlavors(t *testing.T) {
	for _, o := range []Options{
		{K: 4, Flavor: sketch.KMins, Seed: 9},
		{K: 4, Flavor: sketch.KPartition, Seed: 9},
		{K: 8, Seed: 9, BaseB: 2},
	} {
		set := buildUniform(t, o)
		parts, err := SplitSketchSet(set, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range parts {
			var buf bytes.Buffer
			if _, err := part.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			p2, err := ReadSketchSet(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("flavor %v: %v", o.Flavor, err)
			}
			for v := p2.Lo(); v < p2.Hi(); v++ {
				sk := p2.SketchOf(v - p2.Lo())
				if sk.Node() != v {
					t.Fatalf("flavor %v: sketch at %d owned by %d", o.Flavor, v, sk.Node())
				}
				want := EstimateNeighborhoodHIP(set.SketchOf(v), 2)
				if got := EstimateNeighborhoodHIP(sk, 2); got != want {
					t.Fatalf("flavor %v node %d: estimate %v, want %v", o.Flavor, v, got, want)
				}
			}
		}
	}
}

func TestSplitValidation(t *testing.T) {
	set := buildUniform(t, Options{K: 4, Seed: 1})
	if _, err := SplitSketchSet(set, 0); err == nil {
		t.Error("split into 0 partitions succeeded")
	}
	if _, err := SplitSketchSet(set, set.NumNodes()+1); err == nil {
		t.Error("split into more partitions than nodes succeeded")
	}
	// A partition, even of a 1-way split, does not split again.
	for _, count := range []int{1, 2} {
		parts, err := SplitSketchSet(set, count)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SplitSketchSet(parts[0], 2); err == nil || !strings.Contains(err.Error(), "split the whole set") {
			t.Errorf("split of partition 0 of %d: %v", count, err)
		}
	}
}

func TestMergeValidation(t *testing.T) {
	set := buildUniform(t, Options{K: 4, Seed: 1})
	parts, err := SplitSketchSet(set, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeSketchSets(nil); err == nil {
		t.Error("merging nothing succeeded")
	}
	if _, err := MergeSketchSets(parts[:3]); err == nil {
		t.Error("merging an incomplete split succeeded")
	}
	if _, err := MergeSketchSets([]*Set{parts[0], parts[1], parts[2], parts[2]}); err == nil {
		t.Error("merging a duplicate partition succeeded")
	}
	other, err := SplitSketchSet(buildUniform(t, Options{K: 4, Seed: 2}), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeSketchSets([]*Set{parts[0], other[1]}); err == nil {
		t.Error("merging partitions of different splits succeeded")
	}
}

// TestSplitOfForeignParts: partitions that no split of one set produces —
// a range other than the one their position gives them, or Params other
// than partition 0's — are refused by the file readers, naming the range,
// and by the merge.  The case that once merged: a 1-node weighted set
// "split" two ways, partition 0 covering [0, 0) of a priority-rank set
// and partition 1 [0, 1) of an exponential one, merged under partition
// 0's priority ranks and derived the wrong rank for node 0.
func TestSplitOfForeignParts(t *testing.T) {
	weighted := func(n int, scheme WeightScheme) *Set {
		beta := make([]float64, n)
		for i := range beta {
			beta[i] = 1 + float64(i)
		}
		set, err := BuildWeightedSetParallel(graph.NewBuilder(n, false).Build(), 4, 42, beta, scheme, 1)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	part := func(set *Set, index, count, lo, hi int) *Set {
		return &Set{frame: set.frame.slice(lo, hi), index: index, count: count}
	}
	for _, tc := range []struct {
		name    string
		parts   []*Set
		refused []string // the range each file claims, named by its readers
	}{
		{"1 node in 2", []*Set{part(weighted(1, PriorityWeights), 0, 2, 0, 0), part(weighted(1, ExponentialWeights), 1, 2, 0, 1)},
			[]string{"[0, 0)", "[0, 1)"}},
		{"2 nodes off the split's ranges", []*Set{part(weighted(2, ExponentialWeights), 0, 2, 0, 0), part(weighted(2, ExponentialWeights), 1, 2, 0, 2)},
			[]string{"[0, 0)", "[0, 2)"}},
	} {
		for i, p := range tc.parts {
			path := filepath.Join(t.TempDir(), "part.ads")
			if err := os.WriteFile(path, v3Bytes(t, p), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadSketchSet(bytes.NewReader(v3Bytes(t, p))); err == nil || !strings.Contains(err.Error(), tc.refused[i]) {
				t.Errorf("%s: ReadSketchSet of partition %d: %v, want a refusal naming %s", tc.name, i, err, tc.refused[i])
			}
			if _, err := OpenSketchFile(path); err == nil || !strings.Contains(err.Error(), tc.refused[i]) {
				t.Errorf("%s: OpenSketchFile of partition %d: %v, want a refusal naming %s", tc.name, i, err, tc.refused[i])
			}
		}
		if _, err := MergeSketchSets(tc.parts); err == nil {
			t.Errorf("%s: merged", tc.name)
		}
	}
	// On the split's own ranges, the Params must agree.
	exp, err := SplitSketchSet(weighted(3, ExponentialWeights), 2)
	if err != nil {
		t.Fatal(err)
	}
	prio, err := SplitSketchSet(weighted(3, PriorityWeights), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeSketchSets([]*Set{prio[0], exp[1]}); err == nil || !strings.Contains(err.Error(), "Scheme:exponential") {
		t.Errorf("merge of priority and exponential partitions: %v", err)
	}
}

// The one reader tells a partition file from a whole-set file: each reads
// back as the set it was written from, placed in its split or not.
func TestPartitionFileDetection(t *testing.T) {
	set := buildUniform(t, Options{K: 4, Seed: 1})
	parts, err := SplitSketchSet(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		set          *Set
		partition    bool
		index, count int
	}{
		"whole":       {set, false, 0, 1},
		"partition 1": {parts[1], true, 1, 2},
	} {
		got, err := ReadSketchSet(bytes.NewReader(v3Bytes(t, tc.set)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		index, count := got.Part()
		if got.IsPartition() != tc.partition || index != tc.index || count != tc.count || got.Lo() != tc.set.Lo() || got.Hi() != tc.set.Hi() {
			t.Errorf("%s: read back as partition=%v %d/%d over [%d, %d)", name, got.IsPartition(), index, count, got.Lo(), got.Hi())
		}
	}
}

// Truncated or header-corrupted partition files must error, not panic or
// over-allocate.  (internal/legacy's test of this name has a version-2
// one of an earlier release.)
func TestPartitionCorruption(t *testing.T) {
	set := buildUniform(t, Options{K: 4, Seed: 42})
	parts, err := SplitSketchSet(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	raw := v3Bytes(t, parts[0])
	read := func(b []byte) error {
		set, err := ReadSketchSet(bytes.NewReader(b))
		if err == nil && !set.IsPartition() {
			err = fmt.Errorf("read a whole set")
		}
		return err
	}
	if err := read(raw); err != nil {
		t.Fatalf("intact partition refused: %v", err)
	}
	for _, n := range []int{5, 12, 20, len(raw) / 2, len(raw) - 1} {
		if err := read(raw[:n]); err == nil {
			t.Errorf("truncation to %d bytes read successfully", n)
		}
	}
	// The partition count, after magic, version, kind, flags and index.
	bad := append([]byte(nil), raw...)
	copy(bad[20:], []byte{0xff, 0xff, 0xff, 0xff})
	if err := read(bad); err == nil || !strings.Contains(err.Error(), "partition count") {
		t.Errorf("implausible partition count: got %v", err)
	}
}

func TestADSFromEntries(t *testing.T) {
	set := buildUniform(t, Options{K: 4, Seed: 1})
	a := set.Sketch(3).(*ADS)
	rebuilt, err := ADSFromEntries(3, a.K(), append([]Entry(nil), a.Entries()...))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := EstimateNeighborhoodHIP(rebuilt, 2), EstimateNeighborhoodHIP(a, 2); got != want {
		t.Errorf("rebuilt estimate %v, want %v", got, want)
	}
	// Reordered entries violate the canonical-order invariant.
	ents := append([]Entry(nil), a.Entries()...)
	if len(ents) >= 2 {
		ents[0], ents[1] = ents[1], ents[0]
		if _, err := ADSFromEntries(3, a.K(), ents); err == nil {
			t.Error("corrupt entries validated successfully")
		}
	}
}
