package lab

import (
	"math"
	"testing"

	"adsketch/internal/core"
	"adsketch/internal/stats"
	"adsketch/internal/stream"
)

func TestFirstOccurrenceDuplicatesIgnored(t *testing.T) {
	const seed = 1
	s := NewFirstOccurrenceADS(4, seed)
	for id := int64(0); id < 50; id++ {
		t0 := float64(id * 3)
		s.Process(id, t0)
		// Re-occurrences of earlier elements, interleaved in time order.
		if id > 0 {
			s.Process(id-1, t0+1)
		}
		if id > 1 {
			s.Process(id-2, t0+2)
		}
	}
	// Same sketch as a single pass over the 50 distinct elements.
	ref := NewFirstOccurrenceADS(4, seed)
	for id := int64(0); id < 50; id++ {
		ref.Process(id, float64(id*3))
	}
	if s.Size() != ref.Size() || s.DistinctCount() != ref.DistinctCount() {
		t.Errorf("duplicates changed the sketch: size %d vs %d, count %g vs %g",
			s.Size(), ref.Size(), s.DistinctCount(), ref.DistinctCount())
	}
}

func TestFirstOccurrenceHIPUnbiased(t *testing.T) {
	const k, n, runs = 8, 1000, 400
	acc := stats.NewErrAccum(n)
	for run := 0; run < runs; run++ {
		s := NewFirstOccurrenceADS(k, uint64(run)*613+5)
		for id := int64(0); id < n; id++ {
			s.Process(id, float64(id))
		}
		acc.Add(s.DistinctCount())
	}
	if bias := acc.Bias(); math.Abs(bias) > 0.03 {
		t.Errorf("bias = %+.3f", bias)
	}
	if nrmse := acc.NRMSE(); nrmse > 1.25*stats.HIPCV(k) {
		t.Errorf("NRMSE = %g above HIP bound %g", nrmse, stats.HIPCV(k))
	}
}

func TestFirstOccurrenceEstimateWithin(t *testing.T) {
	const seed = 9
	s := NewFirstOccurrenceADS(6, seed)
	for id := int64(0); id < 500; id++ {
		s.Process(id, float64(id))
	}
	// The full-window estimate equals the running count.
	if got := s.EstimateWithin(1e18); math.Abs(got-s.DistinctCount()) > 1e-9 {
		t.Errorf("EstimateWithin(inf) = %g, count = %g", got, s.DistinctCount())
	}
	// Prefix estimates are unbiased over runs.
	const runs = 300
	acc := stats.NewErrAccum(101)
	for run := 0; run < runs; run++ {
		st := NewFirstOccurrenceADS(6, uint64(run)*733+1)
		for id := int64(0); id < 500; id++ {
			st.Process(id, float64(id))
		}
		acc.Add(st.EstimateWithin(100))
	}
	if bias := acc.Bias(); math.Abs(bias) > 0.07 {
		t.Errorf("prefix estimate bias = %+.3f", bias)
	}
	if s.K() != 6 {
		t.Error("K accessor")
	}
	if len(s.Entries()) != s.Size() {
		t.Error("Entries/Size mismatch")
	}
}

func TestRecencyADSBasics(t *testing.T) {
	const seed = 2
	s := NewRecencyADS(4, 1e6, seed)
	for id := int64(0); id < 200; id++ {
		s.Process(id, float64(id))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// The most recent element is always retained (smallest distance).
	if s.entries[0].Node != 199 {
		t.Errorf("most recent entry is %d, want 199", s.entries[0].Node)
	}
	if s.K() != 4 {
		t.Error("K accessor")
	}
}

func TestRecencyADSReoccurrenceMoves(t *testing.T) {
	const seed = 3
	s := NewRecencyADS(4, 1e6, seed)
	for id := int64(0); id < 50; id++ {
		s.Process(id, float64(id))
	}
	// Element 0 re-occurs much later: must be retained as most recent.
	s.Process(0, 1000)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.entries[0].Node != 0 {
		t.Errorf("re-occurred element not at front: %v", s.entries[0])
	}
	// No duplicate entry for element 0.
	count := 0
	for _, e := range s.entries {
		if e.Node == 0 {
			count++
		}
	}
	if count != 1 {
		t.Errorf("element 0 appears %d times", count)
	}
}

func TestRecencyADSWindowEstimateUnbiased(t *testing.T) {
	// Stream 1000 distinct elements at times 0..999; window w covers the
	// last w+1 of them.
	const k, n, runs = 8, 1000, 300
	const window = 99.5 // covers 100 elements
	acc := stats.NewErrAccum(100)
	for run := 0; run < runs; run++ {
		s := NewRecencyADS(k, 1e9, uint64(run)*389+7)
		for id := int64(0); id < n; id++ {
			s.Process(id, float64(id))
		}
		acc.Add(s.EstimateRecent(window))
	}
	if bias := acc.Bias(); math.Abs(bias) > 0.07 {
		t.Errorf("window estimate bias = %+.3f", bias)
	}
}

func TestRecencyADSPanics(t *testing.T) {
	const seed = 4
	check := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	check("bad k", func() { NewRecencyADS(0, 10, seed) })
	check("beyond horizon", func() {
		s := NewRecencyADS(2, 10, seed)
		s.Process(1, 11)
	})
	check("time going backwards", func() {
		s := NewRecencyADS(2, 100, seed)
		s.Process(1, 5)
		s.Process(2, 4)
	})
	check("NaN time", func() { NewRecencyADS(2, 100, seed).Process(1, math.NaN()) })
	check("NaN time after another", func() {
		s := NewRecencyADS(2, 100, seed)
		s.Process(1, 5)
		s.Process(2, math.NaN())
	})
	check("first-occurrence bad k", func() { NewFirstOccurrenceADS(0, seed) })
	check("first-occurrence time going backwards", func() {
		s := NewFirstOccurrenceADS(2, seed)
		s.Process(1, 5)
		s.Process(2, 3)
	})
	check("first-occurrence time going backwards, element not admitted", func() {
		s := NewFirstOccurrenceADS(1, seed)
		for id := int64(0); id < 50; id++ {
			s.Process(id, 5)
		}
		s.Process(50, 3)
	})
	check("first-occurrence NaN time", func() { NewFirstOccurrenceADS(2, seed).Process(1, math.NaN()) })
	check("first-occurrence NaN time after another", func() {
		s := NewFirstOccurrenceADS(2, seed)
		s.Process(1, 5)
		s.Process(2, math.NaN())
	})
}

// TestStreamADSRefuseIDsBeyondInt32: an entry's Node is an int32, so an ID
// that does not fit would alias another element (1 and 1+2^32 would count
// as one); both stream sketches refuse it instead.
func TestStreamADSRefuseIDsBeyondInt32(t *testing.T) {
	for name, process := range map[string]func(id int64){
		"recency":          func(id int64) { NewRecencyADS(4, 1e6, 5).Process(id, 1) },
		"first-occurrence": func(id int64) { NewFirstOccurrenceADS(4, 5).Process(id, 1) },
	} {
		for _, id := range []int64{1 + 1<<32, math.MaxInt32 + 1, math.MinInt32 - 1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: element ID %d did not panic", name, id)
					}
				}()
				process(id)
			}()
		}
		process(math.MaxInt32)
		process(math.MinInt32)
	}
}

func TestRecencyADSSizeStaysLogarithmic(t *testing.T) {
	const seed = 8
	s := NewRecencyADS(4, 1e9, seed)
	for id := int64(0); id < 5000; id++ {
		s.Process(id, float64(id))
	}
	// Expected size ~ k(1 + ln(n) - ln(k)) ~ 4(1+8.5-1.4) ~ 33.
	if s.Size() > 80 {
		t.Errorf("recency ADS size %d looks unbounded", s.Size())
	}
}

func testCounterUnbiased(t *testing.T, name string, k, n, runs int, mk func(seed uint64) DistinctCounter, cvBound float64) {
	t.Helper()
	acc := stats.NewErrAccum(float64(n))
	for run := 0; run < runs; run++ {
		c := mk(uint64(run)*104729 + 11)
		for id := int64(0); id < int64(n); id++ {
			c.Add(id)
			c.Add(id) // immediate duplicate must be a no-op
		}
		acc.Add(c.Estimate())
	}
	if bias := acc.Bias(); math.Abs(bias) > 0.04 {
		t.Errorf("%s bias = %+.3f", name, bias)
	}
	if nrmse := acc.NRMSE(); nrmse > cvBound {
		t.Errorf("%s NRMSE = %g above %g", name, nrmse, cvBound)
	}
}

func TestBottomKCounter(t *testing.T) {
	testCounterUnbiased(t, "bottom-k", 16, 2000, 400, func(seed uint64) DistinctCounter {
		return NewBottomKDistinct(16, seed)
	}, 1.2*stats.HIPCV(16))
}

func TestKMinsCounter(t *testing.T) {
	testCounterUnbiased(t, "k-mins", 16, 2000, 400, func(seed uint64) DistinctCounter {
		return NewKMinsDistinct(16, seed)
	}, 1.25*stats.HIPCV(16))
}

func TestKPartitionCounter(t *testing.T) {
	testCounterUnbiased(t, "k-partition", 16, 2000, 400, func(seed uint64) DistinctCounter {
		return NewKPartitionDistinct(16, seed)
	}, 1.25*stats.HIPCV(16))
}

func TestCountersExactSmall(t *testing.T) {
	const seed = 77
	// Bottom-k counts exactly while below k.
	c := NewBottomKDistinct(32, seed)
	for id := int64(0); id < 20; id++ {
		c.Add(id)
	}
	if c.Estimate() != 20 {
		t.Errorf("bottom-k small estimate = %g, want exactly 20", c.Estimate())
	}
}

func TestCounterConstructorPanics(t *testing.T) {
	const seed = 1
	for name, fn := range map[string]func(){
		"bottom-k":    func() { NewBottomKDistinct(0, seed) },
		"k-mins":      func() { NewKMinsDistinct(0, seed) },
		"k-partition": func() { NewKPartitionDistinct(0, seed) },
		"no-tie ADS":  func() { NewNoTieADS(0, 1) }, // k = 1: its k-th rank holder is unsampled
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with bad k did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRecencyWindowZeroCoversNewestOnly(t *testing.T) {
	s := NewRecencyADS(4, 1e6, 6)
	for id := int64(0); id < 100; id++ {
		s.Process(id, float64(id))
	}
	// A window of zero covers only elements at exactly the current time.
	got := s.EstimateRecent(0)
	if got != 1 {
		t.Errorf("zero-window estimate = %g, want 1 (the newest element)", got)
	}
}

// TestDistinctCountersOnZipfStream: the counters must be insensitive to
// repetition structure — a heavy-tailed stream with many duplicates gives
// the same accuracy as a distinct stream of the same cardinality.
func TestDistinctCountersOnZipfStream(t *testing.T) {
	const k, runs = 32, 120
	acc := stats.NewErrAccum(0) // truth varies per run; use ratio accounting
	var ratios stats.Accum
	for run := 0; run < runs; run++ {
		z := stream.NewZipf(50000, 1.05, uint64(run)*53+1)
		c := NewBottomKDistinct(k, uint64(run)*97+5)
		exact := map[int64]struct{}{}
		for i := 0; i < 100000; i++ {
			id := z.Next()
			exact[id] = struct{}{}
			c.Add(id)
		}
		ratios.Add(c.Estimate() / float64(len(exact)))
	}
	if math.Abs(ratios.Mean()-1) > 0.05 {
		t.Errorf("mean estimate/truth = %g, want ~1", ratios.Mean())
	}
	if ratios.Std() > 2.5/math.Sqrt(2*(k-1)) {
		t.Errorf("ratio std %g far above HIP CV", ratios.Std())
	}
	_ = acc
}

// offeredADS offers a first-occurrence sketch's entries, in their order,
// to a bottom-k ADS owned by element 0.
func offeredADS(s *FirstOccurrenceADS) *core.ADS { return offeredBottomK(s.K(), s.Entries()) }

func TestFirstOccurrenceADSMatchesADS(t *testing.T) {
	// The online HIP count must equal summing the final ADS HIP weights,
	// and the basic estimate must match EstimateNeighborhood at the
	// current max distance.
	const k, n = 6, 500
	b := NewFirstOccurrenceADS(k, 21)
	for i := int64(0); i < n; i++ {
		b.Process(i, float64(i))
		hipFromADS := core.EstimateNeighborhoodHIP(offeredADS(b), float64(i))
		if math.Abs(hipFromADS-b.DistinctCount()) > 1e-9 {
			t.Fatalf("at %d: online HIP %g != ADS HIP %g", i, b.DistinctCount(), hipFromADS)
		}
		basicFromADS := offeredADS(b).EstimateNeighborhood(float64(i))
		if math.Abs(basicFromADS-b.c.BasicEstimate()) > 1e-9 {
			t.Fatalf("at %d: online basic %g != ADS basic %g", i, b.c.BasicEstimate(), basicFromADS)
		}
	}
	if err := offeredADS(b).Validate(); err != nil {
		t.Error(err)
	}
}

// TestStreamADSEqualTimes: entries may share a time in any element order;
// both sketches read them out as the same stream in ascending ID order
// would, where the first-occurrence readout used to panic on the order
// and the recency one in its readout and Validate.
func TestStreamADSEqualTimes(t *testing.T) {
	const k, seed = 8, 1
	fo, foSorted := NewFirstOccurrenceADS(k, seed), NewFirstOccurrenceADS(k, seed)
	re, reSorted := NewRecencyADS(k, 100, seed), NewRecencyADS(k, 100, seed)
	for _, id := range []int64{5, 3, 9, 1} {
		fo.Process(id, 1)
		re.Process(id, 1)
	}
	for _, id := range []int64{1, 3, 5, 9} {
		foSorted.Process(id, 1)
		reSorted.Process(id, 1)
	}
	if got, want := fo.EstimateWithin(2), foSorted.EstimateWithin(2); got != want || got != 4 {
		t.Errorf("first-occurrence: EstimateWithin(2) = %g, sorted %g, want 4", got, want)
	}
	if err := re.Validate(); err != nil {
		t.Error(err)
	}
	if got, want := re.EstimateRecent(1), reSorted.EstimateRecent(1); got != want || got != 4 {
		t.Errorf("recency: EstimateRecent(1) = %g, sorted %g, want 4", got, want)
	}
}

// TestSizeEstimateRecurrence: E_s values satisfy the Lemma 8.1 boundary
// cases and closed form.
func TestSizeEstimateRecurrence(t *testing.T) {
	if got := SizeEstimate(3, 2); got != 2 {
		t.Errorf("s<k: got %g, want 2", got)
	}
	if got := SizeEstimate(3, 3); math.Abs(got-3) > 1e-12 {
		t.Errorf("s=k: got %g, want 3", got)
	}
	// k=1: E_s = 2^s - 1.
	for s := 1; s <= 10; s++ {
		want := math.Pow(2, float64(s)) - 1
		if got := SizeEstimate(1, s); math.Abs(got-want) > 1e-9*want {
			t.Errorf("k=1 s=%d: got %g, want %g", s, got, want)
		}
	}
	// Closed form for k=4, s=7: 4*(1.25)^4 - 1.
	want := 4*math.Pow(1.25, 4) - 1
	if got := SizeEstimate(4, 7); math.Abs(got-want) > 1e-12 {
		t.Errorf("k=4 s=7: got %g, want %g", got, want)
	}
}

// TestSizeEstimateUnbiased: E[E_s] = n over the randomness of the ranks.
func TestSizeEstimateUnbiased(t *testing.T) {
	const k, runs = 5, 4000
	for _, n := range []int{3, 5, 8, 20, 60} {
		var sum float64
		for run := 0; run < runs; run++ {
			b := NewFirstOccurrenceADS(k, uint64(run)*6364136223846793005+uint64(n))
			for i := int64(0); i < int64(n); i++ {
				b.Process(i, float64(i))
			}
			sum += SizeEstimate(k, b.Size())
		}
		mean := sum / runs
		// The estimator is unbiased but heavy-tailed; tolerance is loose.
		if math.Abs(mean-float64(n))/float64(n) > 0.15 {
			t.Errorf("n=%d: mean size-estimate %g", n, mean)
		}
	}
}

func TestSizeEstimatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 did not panic")
		}
	}()
	SizeEstimate(0, 3)
}
