package core

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"adsketch/internal/graph"
	"adsketch/internal/rank"
)

func buildIndexedADS(seed uint64, n int) (*ADS, *HIPIndex) {
	// Repeated distances to exercise the unique-distance grouping.
	a := offerStream(8, n, rank.NewSource(seed), func(i int64) float64 { return float64(i / 3) })
	return a, NewHIPIndex(a)
}

func TestHIPIndexMatchesDirectEstimates(t *testing.T) {
	a, idx := buildIndexedADS(5, 600)
	for _, d := range []float64{-1, 0, 0.5, 1, 7, 33.3, 100, 199, 1e9} {
		want := EstimateNeighborhoodHIP(a, d)
		got := idx.Neighborhood(d)
		if math.Abs(want-got) > 1e-9 {
			t.Errorf("d=%g: index %g, direct %g", d, got, want)
		}
	}
	if math.Abs(idx.Neighborhood(math.Inf(1))-EstimateNeighborhoodHIP(a, math.Inf(1))) > 1e-9 {
		t.Error("unbounded neighborhood mismatch")
	}
}

func TestHIPIndexProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, dRaw uint16) bool {
		a, idx := buildIndexedADS(seed, 200)
		d := float64(dRaw) / 100
		return math.Abs(idx.Neighborhood(d)-EstimateNeighborhoodHIP(a, d)) < 1e-9
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHIPIndexEmpty(t *testing.T) {
	idx := NewHIPIndex(adsOf(0, 3, nil))
	if idx.Neighborhood(math.Inf(1)) != 0 || idx.Neighborhood(5) != 0 {
		t.Error("empty index should report zeros")
	}
	if len(indexSteps(idx)) != 0 {
		t.Error("empty index has distances")
	}
}

func TestHIPIndexMonotone(t *testing.T) {
	_, idx := buildIndexedADS(9, 500)
	prev := -1.0
	for _, d := range indexSteps(idx) {
		cur := idx.Neighborhood(d)
		if cur <= prev {
			t.Fatal("cumulative weights not strictly increasing at step points")
		}
		prev = cur
	}
}

// Property test: builders agree on random small graphs with random seeds
// (complements the fixed-seed agreement table).
func TestBuildersAgreePropertyRandom(t *testing.T) {
	if err := quick.Check(func(gSeed, rSeed uint64, nRaw, pRaw uint8) bool {
		n := 10 + int(nRaw)%60
		p := 0.02 + float64(pRaw%50)/500
		g := graph.GNP(n, p, false, gSeed)
		o := Options{K: 3, Seed: rSeed}
		ref := bruteForceSet(g, o)
		// Algorithm 1 on the calling goroutine and across three workers.
		for _, workers := range []int{1, 3} {
			got, err := BuildSetParallel(g, o, workers)
			if err != nil {
				return false
			}
			for v := int32(0); int(v) < n; v++ {
				a := ref.BottomK(v).Entries()
				b := got.BottomK(v).Entries()
				if len(a) != len(b) {
					return false
				}
				for i := range a {
					if a[i] != b[i] {
						return false
					}
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestFrameIndexKBound: k is at most MaxK — a larger one is refused where
// the v3 header's 32 bits would have cut it short — and the largest k
// builds, round-trips through the file and indexes a small sketch in
// memory that follows its entries, not k.
func TestFrameIndexKBound(t *testing.T) {
	g := graph.Path(5)
	for _, k := range []int{MaxK + 1, 1 << 40} {
		if _, err := BuildSet(g, Options{K: k}); err == nil {
			t.Errorf("BuildSet with K = %d succeeded", k)
		}
	}
	set, err := BuildSet(g, Options{K: MaxK, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := set.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSketchSet(&buf)
	if err != nil || back.K() != MaxK {
		t.Fatalf("read back K = MaxK: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	x := back.Index(2)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
		t.Errorf("indexing a 5-entry sketch at k = MaxK allocated %d B", got)
	}
	if got := x.Neighborhood(math.Inf(1)); got != 5 {
		t.Errorf("estimate %g, want the exact 5", got)
	}
}

// indexSteps returns an index's distinct distances, ascending.
func indexSteps(x *HIPIndex) []float64 {
	if x.sd.n == 0 {
		return nil
	}
	return x.sd.col.appendRaw(nil, x.sd.slo, x.sd.slo+int64(x.sd.n))
}

// indexEntries materializes an index's HIP entries in canonical order.
func indexEntries(x *HIPIndex) []WeightedEntry {
	out := make([]WeightedEntry, x.Len())
	nodes := x.nodes().cursor()
	for i := range out {
		u := nodes.Next()
		out[i] = WeightedEntry{Node: u, Dist: x.sd.step(nodes.step()), Weight: x.ew[i]}
	}
	return out
}
