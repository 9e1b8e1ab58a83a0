package core

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"adsketch/internal/rank"
)

func TestMaxHeapKeepsKSmallest(t *testing.T) {
	h := newKSmallest(3)
	for _, x := range []float64{0.9, 0.2, 0.7, 0.4, 0.05, 0.6} {
		h.offer(x)
	}
	if h.size() != 3 {
		t.Fatalf("size = %d", h.size())
	}
	if h.max() != 0.4 {
		t.Errorf("max = %g, want 0.4 (3rd smallest)", h.max())
	}
	got := h.sorted()
	want := []float64{0.05, 0.2, 0.4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sorted[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestMaxHeapProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%64 + 1
		const k = 4
		rng := rank.NewRNG(seed)
		h := newKSmallest(k)
		var all []float64
		for i := 0; i < n; i++ {
			x := rng.Float64()
			h.offer(x)
			all = append(all, x)
		}
		sort.Float64s(all)
		m := k
		if n < k {
			m = n
		}
		got := h.sorted()
		if len(got) != m {
			return false
		}
		for i := 0; i < m; i++ {
			if got[i] != all[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestADSOfferAndThreshold offers a stream in canonical order through the
// offer rule, one-entry batches merged in turn: an entry is kept iff its
// rank is below the k-th smallest rank kept before it (1 while fewer than
// k are), and the kept list is a valid ADS.
func TestADSOfferAndThreshold(t *testing.T) {
	kern := NewOfferKernel(2)
	var list []Entry
	for _, c := range []struct {
		e    Entry
		kept bool
	}{
		{Entry{Node: 0, Dist: 0, Rank: 0.8}, true},  // threshold 1
		{Entry{Node: 1, Dist: 1, Rank: 0.5}, true},  // threshold 1
		{Entry{Node: 2, Dist: 2, Rank: 0.9}, false}, // threshold 0.8
		{Entry{Node: 3, Dist: 3, Rank: 0.1}, true},  // threshold 0.8
		{Entry{Node: 4, Dist: 4, Rank: 0.6}, false}, // threshold 0.5, 2nd of {0.8, 0.5, 0.1}
	} {
		var accepted []int
		list, _, accepted, _ = kern.Merge(list, nil, []Entry{c.e}, nil)
		if kept := len(accepted) == 1; kept != c.kept {
			t.Errorf("offer of %+v: kept %v, want %v", c.e, kept, c.kept)
		}
	}
	a, err := ADSFromEntries(0, 2, list)
	if err != nil {
		t.Fatalf("kept entries: %v", err)
	}
	if a.Size() != 3 {
		t.Errorf("size = %d, want 3", a.Size())
	}
}

func TestADSCanonicalOrderTieByID(t *testing.T) {
	// Same distance, higher ID: allowed.
	if _, err := ADSFromEntries(0, 4, []Entry{
		{Node: 0, Dist: 0, Rank: 0.9},
		{Node: 2, Dist: 1, Rank: 0.5},
		{Node: 5, Dist: 1, Rank: 0.4},
	}); err != nil {
		t.Errorf("Validate: %v", err)
	}
	// Same distance, lower ID: out of canonical order.
	if _, err := ADSFromEntries(0, 4, []Entry{
		{Node: 0, Dist: 0, Rank: 0.9},
		{Node: 5, Dist: 1, Rank: 0.4},
		{Node: 2, Dist: 1, Rank: 0.5},
	}); err == nil {
		t.Error("a tie out of ID order validated")
	}
}

func TestADSValidateDetectsViolations(t *testing.T) {
	a := adsOf(0, 1, []Entry{
		{Node: 0, Dist: 0, Rank: 0.5},
		{Node: 1, Dist: 1, Rank: 0.7}, // rank above threshold 0.5
	})
	if a.Validate() == nil {
		t.Error("inclusion violation not detected")
	}
	b := adsOf(0, 9, []Entry{
		{Node: 0, Dist: 2, Rank: 0.5},
		{Node: 1, Dist: 1, Rank: 0.3},
	})
	if b.Validate() == nil {
		t.Error("order violation not detected")
	}
	if adsOf(7, 2, []Entry{{Node: 3, Dist: 0, Rank: 0.2}}).Validate() == nil {
		t.Error("wrong owner first entry not detected")
	}
	if adsOf(7, 2, nil).Validate() == nil {
		t.Error("empty sketch not detected")
	}
}

func TestHIPWeightsManual(t *testing.T) {
	// k=2 ADS with hand-picked ranks; the HIP weight of entry i (i>=k) is
	// the inverse of the 2nd-smallest rank among entries before it.
	a := adsOf(0, 2, []Entry{
		{Node: 0, Dist: 0, Rank: 0.6},
		{Node: 1, Dist: 1, Rank: 0.8},
		{Node: 2, Dist: 2, Rank: 0.5}, // tau = 0.8  -> w = 1.25
		{Node: 3, Dist: 3, Rank: 0.4}, // tau = 2nd smallest of {.6,.8,.5} = 0.6
		{Node: 4, Dist: 4, Rank: 0.2}, // tau = 2nd of {.6,.8,.5,.4} = 0.5
	})
	if err := a.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	ws := a.HIPEntries()
	want := []float64{1, 1, 1 / 0.8, 1 / 0.6, 1 / 0.5}
	for i, w := range want {
		if math.Abs(ws[i].Weight-w) > 1e-12 {
			t.Errorf("weight[%d] = %g, want %g", i, ws[i].Weight, w)
		}
	}
}

func TestHIPWeightsFirstKAreOne(t *testing.T) {
	const k = 8
	ws := streamADS(k, 200, rank.NewSource(5)).HIPEntries()
	for i := 0; i < k && i < len(ws); i++ {
		if ws[i].Weight != 1 {
			t.Errorf("entry %d weight = %g, want 1", i, ws[i].Weight)
		}
	}
	// Weights are non-decreasing in distance (inclusion probability
	// decreases with distance).
	for i := 1; i < len(ws); i++ {
		if ws[i].Weight < ws[i-1].Weight-1e-12 {
			t.Errorf("weights not non-decreasing at %d: %g < %g", i, ws[i].Weight, ws[i-1].Weight)
		}
	}
}

func TestMinHashWithinMatchesDefinition(t *testing.T) {
	src := rank.NewSource(11)
	const k, n = 4, 300
	ads := streamADS(k, n, src)
	var ranks []float64
	for i := int64(0); i < n; i++ {
		ranks = append(ranks, src.Rank(i))
	}
	for _, d := range []float64{0, 3, 10, 50, 299} {
		got := ads.MinHashWithin(d)
		// Brute force: k smallest ranks among first d+1 elements.
		prefix := append([]float64(nil), ranks[:int(d)+1]...)
		sort.Float64s(prefix)
		m := k
		if len(prefix) < k {
			m = len(prefix)
		}
		if len(got) != m {
			t.Fatalf("d=%g: len=%d want %d", d, len(got), m)
		}
		for i := 0; i < m; i++ {
			if got[i] != prefix[i] {
				t.Errorf("d=%g: minhash[%d] = %g, want %g", d, i, got[i], prefix[i])
			}
		}
	}
}

func TestSizeWithin(t *testing.T) {
	a := adsOf(0, 3, []Entry{
		{Node: 0, Dist: 0, Rank: 0.9},
		{Node: 1, Dist: 2, Rank: 0.5},
		{Node: 2, Dist: 2.5, Rank: 0.3},
		{Node: 3, Dist: 7, Rank: 0.1},
	})
	cases := []struct {
		d    float64
		want int
	}{{-1, 0}, {0, 1}, {1.9, 1}, {2, 2}, {2.5, 3}, {6.9, 3}, {7, 4}, {100, 4}}
	for _, c := range cases {
		if got := a.SizeWithin(c.d); got != c.want {
			t.Errorf("SizeWithin(%g) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestEstimateQAndCentralityKernels(t *testing.T) {
	a := adsOf(0, 2, []Entry{
		{Node: 0, Dist: 0, Rank: 0.6},
		{Node: 1, Dist: 1, Rank: 0.8},
		{Node: 2, Dist: 2, Rank: 0.5},
	})
	// Weights: 1, 1, 1.25.
	got := EstimateQ(a, func(node int32, dist float64) float64 { return dist })
	want := 0.0 + 1*1 + 1.25*2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("EstimateQ = %g, want %g", got, want)
	}
	// Centrality with threshold kernel d<=1 and unit beta: 1 + 1 = 2.
	got = EstimateCentrality(a, KernelThreshold(1), UnitBeta)
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("threshold centrality = %g, want 2", got)
	}
	// Beta filter selecting only node 2.
	got = EstimateCentrality(a, KernelReachability, func(n int32) float64 {
		if n == 2 {
			return 1
		}
		return 0
	})
	if math.Abs(got-1.25) > 1e-12 {
		t.Errorf("filtered centrality = %g, want 1.25", got)
	}
}

func TestKernels(t *testing.T) {
	if KernelThreshold(5)(5) != 1 || KernelThreshold(5)(5.01) != 0 {
		t.Error("threshold kernel boundary wrong")
	}
	if KernelReachability(1e18) != 1 {
		t.Error("reachability kernel should be 1 everywhere")
	}
	if math.Abs(KernelExponential(3)-0.125) > 1e-12 {
		t.Error("exponential kernel wrong")
	}
	if KernelHarmonic(0) != 0 || KernelHarmonic(4) != 0.25 {
		t.Error("harmonic kernel wrong")
	}
	if KernelIdentity(3.5) != 3.5 {
		t.Error("identity kernel wrong")
	}
	if UnitBeta(42) != 1 {
		t.Error("unit beta wrong")
	}
}

func TestADSExpectedSize(t *testing.T) {
	// Lemma 2.2: E[size] = k + k(H_n - H_k).
	const k, n, runs = 5, 400, 400
	var total float64
	for run := 0; run < runs; run++ {
		total += float64(streamADS(k, n, rank.NewSource(uint64(run)*7919+3)).Size())
	}
	got := total / runs
	want := float64(k) + float64(k)*(harmonicTest(n)-harmonicTest(k))
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("mean ADS size = %g, want ~%g", got, want)
	}
}

func harmonicTest(n int) float64 {
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}

func TestMinHashEntriesWithinUnderfull(t *testing.T) {
	es := streamADS(16, 5, rank.NewSource(3)).MinHashEntriesWithin(100)
	if len(es) != 5 {
		t.Errorf("underfull MinHash entries = %d, want 5", len(es))
	}
}

// TestSetBottomKPanicsOnWrongFlavor: BottomK views a uniform or
// approximate set's sketches; a weighted set holds another type.
func TestSetBottomKPanicsOnWrongFlavor(t *testing.T) {
	g := graphPathForTest(4)
	set, err := BuildWeightedSetParallel(g, 2, 1, []float64{1, 2, 1, 2}, ExponentialWeights, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BottomK on a weighted set did not panic")
		}
	}()
	set.BottomK(0)
}
