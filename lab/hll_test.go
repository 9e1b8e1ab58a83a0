package lab

import (
	"math"
	"testing"

	"adsketch/internal/stats"
)

func TestSketchAddAndDuplicates(t *testing.T) {
	s := NewHyperLogLog(16, 1)
	changed := 0
	for id := int64(0); id < 1000; id++ {
		if s.Add(id) {
			changed++
		}
	}
	if changed == 0 || changed == 1000 {
		t.Fatalf("register updates = %d, implausible", changed)
	}
	// Re-adding everything must not modify the sketch.
	for id := int64(0); id < 1000; id++ {
		if s.Add(id) {
			t.Fatal("duplicate modified sketch")
		}
	}
}

func TestSketchMergeIsUnion(t *testing.T) {
	const seed = 2
	a, b, u := NewHyperLogLog(32, seed), NewHyperLogLog(32, seed), NewHyperLogLog(32, seed)
	for id := int64(0); id < 500; id++ {
		a.Add(id)
		u.Add(id)
	}
	for id := int64(250); id < 900; id++ {
		b.Add(id)
		u.Add(id)
	}
	a.Merge(b)
	for i := range a.Registers() {
		if a.Registers()[i] != u.Registers()[i] {
			t.Fatalf("register %d: merged %d, union %d", i, a.Registers()[i], u.Registers()[i])
		}
	}
	if a.Estimate() != u.Estimate() {
		t.Error("merged estimate differs from union")
	}
}

func TestSketchMergePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched merge did not panic")
		}
	}()
	NewHyperLogLog(16, 1).Merge(NewHyperLogLog(32, 1))
}

func TestNewPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"sketch k=1":   func() { NewHyperLogLog(1, 1) },
		"baseb k=1":    func() { NewBaseBHIP(1, 2, 31, 1) },
		"baseb cap=0":  func() { NewBaseBHIP(16, 2, 0, 1) },
		"baseb base=1": func() { NewBaseBHIP(16, 1, 31, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAlphaConstants(t *testing.T) {
	if alpha(16) != 0.673 || alpha(32) != 0.697 || alpha(64) != 0.709 {
		t.Error("small-m alpha constants wrong")
	}
	if got := alpha(128); math.Abs(got-0.7213/(1+1.079/128)) > 1e-12 {
		t.Errorf("alpha(128) = %g", got)
	}
}

// estimatorError sweeps cardinality n over runs and returns bias and NRMSE
// of the provided estimator at n.
func estimatorError(n, runs, k int, est func(seed uint64) float64) (bias, nrmse float64) {
	acc := stats.NewErrAccum(float64(n))
	for run := 0; run < runs; run++ {
		acc.Add(est(uint64(run)*48271 + 3))
	}
	return acc.Bias(), acc.NRMSE()
}

func TestHLLEstimateLargeRange(t *testing.T) {
	const k, n, runs = 64, 50000, 120
	bias, nrmse := estimatorError(n, runs, k, func(seed uint64) float64 {
		s := NewHyperLogLog(k, seed)
		for id := int64(0); id < n; id++ {
			s.Add(id)
		}
		return s.Estimate()
	})
	if math.Abs(bias) > 0.05 {
		t.Errorf("HLL bias at large n = %+.3f", bias)
	}
	// NRMSE ~ 1.04/sqrt(k) asymptotically; allow generous slack.
	if nrmse > 1.6*stats.HLLCV(k) {
		t.Errorf("HLL NRMSE = %g, expected ~%g", nrmse, stats.HLLCV(k))
	}
}

func TestHLLLinearCountingSmallRange(t *testing.T) {
	const k, n, runs = 64, 30, 200
	bias, nrmse := estimatorError(n, runs, k, func(seed uint64) float64 {
		s := NewHyperLogLog(k, seed)
		for id := int64(0); id < n; id++ {
			s.Add(id)
		}
		return s.Estimate()
	})
	if math.Abs(bias) > 0.05 {
		t.Errorf("linear-counting bias = %+.3f", bias)
	}
	if nrmse > 0.25 {
		t.Errorf("linear-counting NRMSE = %g", nrmse)
	}
}

func TestHLLRawBiasedSmallRange(t *testing.T) {
	// The raw estimator is badly biased up for n << k (with empty
	// registers it reports ~0.67k no matter how small n is); the
	// linear-counting correction must beat it there.  This is the
	// small-cardinality divergence visible in Figure 3.
	const k, runs = 16, 600
	const n = 8
	rawAcc := stats.NewErrAccum(float64(n))
	corAcc := stats.NewErrAccum(float64(n))
	for run := 0; run < runs; run++ {
		s := NewHyperLogLog(k, uint64(run)*1299709+7)
		for id := int64(0); id < int64(n); id++ {
			s.Add(id)
		}
		rawAcc.Add(s.RawEstimate())
		corAcc.Add(s.Estimate())
	}
	if rawAcc.Bias() < 0.2 {
		t.Errorf("raw bias at n<<k = %+.3f, expected strongly positive", rawAcc.Bias())
	}
	if rawAcc.NRMSE() <= 2*corAcc.NRMSE() {
		t.Errorf("raw NRMSE %g not much worse than corrected %g at small n",
			rawAcc.NRMSE(), corAcc.NRMSE())
	}
}

func TestHIPUnbiasedAndBeatsHLL(t *testing.T) {
	const k, n, runs = 16, 20000, 300
	hipAcc := stats.NewErrAccum(float64(n))
	hllAcc := stats.NewErrAccum(float64(n))
	for run := 0; run < runs; run++ {
		seed := uint64(run)*7129 + 13
		h := NewHIPDistinct(k, seed)
		s := NewHyperLogLog(k, seed)
		for id := int64(0); id < int64(n); id++ {
			h.Add(id)
			s.Add(id)
		}
		hipAcc.Add(h.Estimate())
		hllAcc.Add(s.Estimate())
	}
	if bias := hipAcc.Bias(); math.Abs(bias) > 0.04 {
		t.Errorf("HIP bias = %+.3f", bias)
	}
	// Section 6: HIP ~ 0.866/sqrt(k) with base-2 inflation factor; it must
	// beat corrected HLL.
	if hipAcc.NRMSE() >= hllAcc.NRMSE() {
		t.Errorf("HIP NRMSE %g not below HLL %g", hipAcc.NRMSE(), hllAcc.NRMSE())
	}
	bound := stats.HIPBaseBCV(k, 2) // sqrt(3/(4(k-1)))
	if hipAcc.NRMSE() > 1.3*bound {
		t.Errorf("HIP NRMSE %g far above analysis %g", hipAcc.NRMSE(), bound)
	}
}

func TestHIPDuplicatesIgnored(t *testing.T) {
	h := NewHIPDistinct(16, 5)
	for id := int64(0); id < 300; id++ {
		h.Add(id)
	}
	before := h.Estimate()
	for id := int64(0); id < 300; id++ {
		if h.Add(id) {
			t.Fatal("duplicate updated HIP sketch")
		}
	}
	if h.Estimate() != before {
		t.Error("duplicate changed the estimate")
	}
}

func TestHIPExactEarly(t *testing.T) {
	// Until any bucket collision happens, every element updates with
	// probability ~1... not exactly 1 (register value 0 is exceeded with
	// probability 1), so the very first additions each add weight 1.
	h := NewHIPDistinct(64, 6)
	h.Add(1)
	if math.Abs(h.Estimate()-1) > 1e-12 {
		t.Errorf("first element weight = %g, want 1", h.Estimate())
	}
}

func TestHIPSaturation(t *testing.T) {
	h := NewHIPDistinct(2, 7)
	// Force saturation by writing registers directly.
	h.sketch.m[0], h.sketch.m[1] = RegisterCap, RegisterCap
	if !h.Saturated() {
		t.Fatal("not saturated")
	}
	before := h.Estimate()
	for id := int64(0); id < 1000; id++ {
		if h.Add(id) {
			t.Fatal("saturated register grew")
		}
	}
	if h.Estimate() != before {
		t.Error("estimate moved after saturation")
	}
	if h.K() != 2 || h.Sketch() == nil {
		t.Error("accessors")
	}
}

func TestBaseBHIPUnbiased(t *testing.T) {
	const k, n, runs = 16, 5000, 300
	for _, b := range []float64{2, math.Sqrt2} {
		acc := stats.NewErrAccum(float64(n))
		for run := 0; run < runs; run++ {
			h := NewBaseBHIP(k, b, 400, uint64(run)*6151+17)
			for id := int64(0); id < int64(n); id++ {
				h.Add(id)
			}
			acc.Add(h.Estimate())
		}
		if bias := acc.Bias(); math.Abs(bias) > 0.04 {
			t.Errorf("base %g bias = %+.3f", b, bias)
		}
		bound := stats.HIPBaseBCV(k, b)
		if acc.NRMSE() > 1.35*bound {
			t.Errorf("base %g NRMSE = %g above analysis %g", b, acc.NRMSE(), bound)
		}
	}
}

func TestBaseBSmallerBaseIsMoreAccurate(t *testing.T) {
	// Section 6: base sqrt(2) has lower CV than base 2 at equal k.
	const k, n, runs = 16, 4000, 400
	nrmse := func(b float64) float64 {
		acc := stats.NewErrAccum(float64(n))
		for run := 0; run < runs; run++ {
			h := NewBaseBHIP(k, b, 400, uint64(run)*2099+29)
			for id := int64(0); id < int64(n); id++ {
				h.Add(id)
			}
			acc.Add(h.Estimate())
		}
		return acc.NRMSE()
	}
	e2, esqrt2 := nrmse(2), nrmse(math.Sqrt2)
	if esqrt2 >= e2 {
		t.Errorf("base sqrt(2) NRMSE %g not below base 2 %g", esqrt2, e2)
	}
	h := NewBaseBHIP(4, 2, 31, 1)
	if h.K() != 4 || h.Base() != 2 || len(h.Registers()) != 4 {
		t.Error("accessors")
	}
}

func TestVarianceFactor(t *testing.T) {
	if got := NewBaseBHIP(16, 2, 31, 1).VarianceFactor(); got != 1.5 {
		t.Errorf("VarianceFactor(2) = %g, want 1.5", got)
	}
	if got := NewBaseBHIP(16, 3, 31, 1).VarianceFactor(); got != 2 {
		t.Errorf("VarianceFactor(3) = %g, want 2", got)
	}
}
