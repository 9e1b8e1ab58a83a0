package lab

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"adsketch/internal/rank"
	"adsketch/internal/sketch"
)

// The MinHash sketch each counter keeps, checked against brute force; the
// basic estimators' statistics over these sketches are tested beside their
// formulas in internal/sketch.

func TestBottomKAddKeepsKSmallest(t *testing.T) {
	c := NewBottomKDistinct(3, 1)
	var all []float64
	for id := int64(0); id < 6; id++ {
		c.Add(id)
		all = append(all, c.src.Rank(id))
	}
	sort.Float64s(all)
	if len(c.ranks) != 3 {
		t.Fatalf("len = %d, want 3", len(c.ranks))
	}
	for i, r := range c.ranks {
		if r != all[i] {
			t.Errorf("entry %d rank = %g, want %g", i, r, all[i])
		}
	}
	if c.threshold() != all[2] {
		t.Errorf("threshold = %g, want %g", c.threshold(), all[2])
	}
}

func TestBottomKAddReportsModification(t *testing.T) {
	c := NewBottomKDistinct(2, 2)
	if !c.Add(0) || !c.Add(1) {
		t.Fatal("initial adds should modify")
	}
	above, below := int64(-1), int64(-1)
	for id := int64(2); above < 0 || below < 0; id++ {
		if c.src.Rank(id) >= c.threshold() {
			if above < 0 {
				above = id
			}
		} else if below < 0 {
			below = id
		}
	}
	if c.Add(above) {
		t.Error("rank above threshold modified sketch")
	}
	if !c.Add(below) {
		t.Error("rank below threshold did not modify")
	}
	if c.Add(below) {
		t.Error("duplicate add modified sketch")
	}
}

func TestBottomKThresholdUnderfull(t *testing.T) {
	c := NewBottomKDistinct(5, 3)
	c.Add(1)
	if c.threshold() != 1 {
		t.Errorf("underfull threshold = %g, want 1", c.threshold())
	}
	if c.BasicEstimate() != 1 {
		t.Errorf("underfull estimate = %g, want exact count 1", c.BasicEstimate())
	}
}

func TestBottomKPropertySmallestRanksKept(t *testing.T) {
	// Property: after adding any set of distinct elements, the sketch holds
	// exactly the k smallest ranks.
	if err := quick.Check(func(seed uint64, nRaw uint16) bool {
		n := int(nRaw)%300 + 1
		const k = 5
		c := NewBottomKDistinct(k, seed)
		all := make([]float64, 0, n)
		for id := int64(0); id < int64(n); id++ {
			c.Add(id)
			all = append(all, c.src.Rank(id))
		}
		sort.Float64s(all)
		m := min(k, n)
		for i := 0; i < m; i++ {
			if c.ranks[i] != all[i] {
				return false
			}
		}
		return len(c.ranks) == m
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestKMinsAddTracksMinimum(t *testing.T) {
	const seed = 5
	c := NewKMinsDistinct(4, seed)
	for id := int64(0); id < 50; id++ {
		c.Add(id)
	}
	src := rank.NewSource(seed)
	for i := 0; i < 4; i++ {
		want := 1.0
		for id := int64(0); id < 50; id++ {
			want = math.Min(want, rankAt(src, i, id))
		}
		if c.mins[i] != want {
			t.Errorf("perm %d: min = %g, want %g", i, c.mins[i], want)
		}
	}
}

func TestKPartitionAdd(t *testing.T) {
	const seed = 7
	c := NewKPartitionDistinct(8, seed)
	for id := int64(0); id < 200; id++ {
		c.Add(id)
	}
	// Recompute expected bucket minima by brute force.
	src := rank.NewSource(seed)
	want := make([]float64, 8)
	for i := range want {
		want[i] = 1
	}
	for id := int64(0); id < 200; id++ {
		b := bucket(src, id, 8)
		if r := src.Rank(id); r < want[b] {
			want[b] = r
		}
	}
	for i := range want {
		if c.mins[i] != want[i] {
			t.Errorf("bucket %d min = %g, want %g", i, c.mins[i], want[i])
		}
	}
}

// basicCounter is a distinct counter with its Section 4 readout.
type basicCounter interface {
	DistinctCounter
	BasicEstimate() float64
}

// TestCountersReadTheirOwnSketch runs one seeded stream with re-occurrences
// through each flavor and, at every prefix, pins the seams between the
// counters and the rest of the tree: the basic readout is the
// internal/sketch formula over the counter's own minima, a re-occurrence
// moves neither readout, and FirstOccurrenceADS counts what a
// BottomKDistinct on the same stream counts.
func TestCountersReadTheirOwnSketch(t *testing.T) {
	const k, seed, steps, domain = 8, 21, 3000, 400
	bk := NewBottomKDistinct(k, seed)
	km := NewKMinsDistinct(k, seed)
	kp := NewKPartitionDistinct(k, seed)
	flavors := []struct {
		name    string
		counter basicCounter
		formula func() float64
	}{
		{"bottom-k", bk, func() float64 {
			if len(bk.ranks) < k {
				return float64(len(bk.ranks))
			}
			return sketch.BottomKEstimate(k, bk.threshold())
		}},
		{"k-mins", km, func() float64 { return sketch.KMinsEstimate(km.mins) }},
		{"k-partition", kp, func() float64 { return sketch.KPartitionEstimate(kp.mins) }},
	}
	fo := NewFirstOccurrenceADS(k, seed)
	rng := rank.NewRNG(seed)
	seen := map[int64]bool{}
	reoccurrences := 0
	for i := 0; i < steps; i++ {
		id := int64(rng.Intn(domain))
		if seen[id] {
			reoccurrences++
		}
		for _, f := range flavors {
			hip, basic := f.counter.Estimate(), f.counter.BasicEstimate()
			changed := f.counter.Add(id)
			if seen[id] && (changed || f.counter.Estimate() != hip || f.counter.BasicEstimate() != basic) {
				t.Fatalf("%s, step %d: re-occurrence of %d moved the sketch (HIP %g -> %g, basic %g -> %g)",
					f.name, i, id, hip, f.counter.Estimate(), basic, f.counter.BasicEstimate())
			}
			if got, want := f.counter.BasicEstimate(), f.formula(); got != want {
				t.Fatalf("%s, step %d: BasicEstimate = %g, formula over the minima = %g", f.name, i, got, want)
			}
		}
		seen[id] = true
		fo.Process(id, float64(i))
		if fo.DistinctCount() != bk.Estimate() {
			t.Fatalf("step %d: FirstOccurrenceADS count %g, BottomKDistinct %g", i, fo.DistinctCount(), bk.Estimate())
		}
	}
	if reoccurrences < steps/2 {
		t.Fatalf("only %d re-occurrences in %d steps", reoccurrences, steps)
	}
}
