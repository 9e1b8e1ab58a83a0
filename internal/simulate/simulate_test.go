package simulate

import (
	"math"
	"testing"

	"adsketch/internal/stats"
)

func TestCheckpoints(t *testing.T) {
	cs := Checkpoints(10000, 10)
	if cs[0] != 1 || cs[len(cs)-1] != 10000 {
		t.Fatalf("endpoints: %v", cs)
	}
	for i := 1; i < len(cs); i++ {
		if cs[i] <= cs[i-1] {
			t.Fatal("not strictly increasing")
		}
	}
	// ~10 per decade over 4 decades.
	if len(cs) < 30 || len(cs) > 50 {
		t.Errorf("checkpoint count = %d", len(cs))
	}
	if Checkpoints(0, 10) != nil {
		t.Error("max<1 should give nil")
	}
	one := Checkpoints(1, 10)
	if len(one) != 1 || one[0] != 1 {
		t.Errorf("Checkpoints(1) = %v", one)
	}
}

func TestFigure2SmallShape(t *testing.T) {
	// A scaled-down Figure 2 panel must reproduce the qualitative shape:
	// HIP below basic at large n, bottom-k basic exact for n <= k,
	// k-partition worst at small n, permutation best at the top end.
	cfg := Fig2Config{K: 10, MaxN: 2000, Runs: 150, Seed: 42, PerDecade: 5}
	panel := Figure2(cfg)
	byName := map[string]*stats.Series{}
	for _, s := range panel.Series {
		byName[s.Name] = s
	}
	top := 2000.0

	hip := byName[SeriesBottomHIP].Point(top).NRMSE()
	basic := byName[SeriesBottomBasic].Point(top).NRMSE()
	if hip >= basic {
		t.Errorf("at n=%g: HIP NRMSE %g not below basic %g", top, hip, basic)
	}
	ratio := basic / hip
	if ratio < 1.2 || ratio > 1.7 {
		t.Errorf("basic/HIP ratio %g, want ~sqrt(2)", ratio)
	}

	// Bottom-k basic is exact below k (the count itself is the estimate).
	if e := byName[SeriesBottomBasic].Point(6); e == nil || e.NRMSE() != 0 {
		t.Error("bottom-k basic not exact at n<k")
	}
	// ... and HIP likewise.
	if e := byName[SeriesBottomHIP].Point(6); e == nil || e.NRMSE() != 0 {
		t.Error("HIP not exact at n<k")
	}
	// k-mins basic error below k is already nonzero.
	if e := byName[SeriesKMinsBasic].Point(6); e == nil || e.NRMSE() == 0 {
		t.Error("k-mins basic unexpectedly exact at n<k")
	}
	// k-partition is worse than bottom-k basic at n ~ 2k (nearest
	// checkpoint to 20 on the log grid is 16).
	kp := byName[SeriesKPartBasic].Point(16).NRMSE()
	bk := byName[SeriesBottomBasic].Point(16).NRMSE()
	if kp <= bk {
		t.Errorf("k-partition NRMSE %g not above bottom-k %g at n~2k", kp, bk)
	}
	// Permutation estimator at the top end (n = max) beats HIP clearly.
	perm := byName[SeriesPerm].Point(top).NRMSE()
	if perm >= hip {
		t.Errorf("perm NRMSE %g not below HIP %g at n=maxN", perm, hip)
	}
	// Basic estimators near the reference CV at the plateau.
	if math.Abs(basic-stats.BasicCV(10)) > 0.35*stats.BasicCV(10) {
		t.Errorf("basic plateau NRMSE %g vs reference %g", basic, stats.BasicCV(10))
	}
	if math.Abs(hip-stats.HIPCV(10)) > 0.35*stats.HIPCV(10) {
		t.Errorf("HIP plateau NRMSE %g vs reference %g", hip, stats.HIPCV(10))
	}
}

func TestFigure2Deterministic(t *testing.T) {
	cfg := Fig2Config{K: 5, MaxN: 200, Runs: 20, Seed: 7, PerDecade: 4, Goroutines: 3}
	a := Figure2(cfg)
	b := Figure2(cfg)
	for i := range a.Series {
		for _, x := range a.Series[i].Xs() {
			if a.Series[i].Point(x).NRMSE() != b.Series[i].Point(x).NRMSE() {
				t.Fatalf("series %s not deterministic at %g", a.Series[i].Name, x)
			}
		}
	}
}

func TestFigure3SmallShape(t *testing.T) {
	cfg := Fig3Config{K: 16, MaxN: 50000, Runs: 120, Seed: 5, PerDecade: 4}
	panel := Figure3(cfg)
	byName := map[string]*stats.Series{}
	for _, s := range panel.Series {
		byName[s.Name] = s
	}
	top := 50000.0
	hip := byName[SeriesHIP].Point(top)
	hl := byName[SeriesHLL].Point(top)
	raw := byName[SeriesHLLRaw].Point(top)
	if hip.NRMSE() >= hl.NRMSE() {
		t.Errorf("HIP plateau NRMSE %g not below HLL %g", hip.NRMSE(), hl.NRMSE())
	}
	if math.Abs(hip.Bias()) > 0.05 {
		t.Errorf("HIP bias %+.3f", hip.Bias())
	}
	// Raw estimator is strongly biased at tiny cardinalities.
	if rawSmall := byName[SeriesHLLRaw].Point(3); rawSmall.Bias() < 0.5 {
		t.Errorf("raw bias at n=3 = %+.3f, expected strongly positive", rawSmall.Bias())
	}
	// HIP plateau constant near sqrt(3/(4k)).
	want := stats.HIPOnHLLCV(16)
	if math.Abs(hip.NRMSE()-want) > 0.4*want {
		t.Errorf("HIP plateau %g vs analysis %g", hip.NRMSE(), want)
	}
	_ = raw
}

func TestSizeTableMatchesLemma(t *testing.T) {
	rows := SizeTable([]int{1, 5}, []int{100, 1000}, 300, 3)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.Measured-r.Expected) > 0.08*r.Expected {
			t.Errorf("k=%d n=%d: measured %g vs expected %g", r.K, r.N, r.Measured, r.Expected)
		}
	}
}

func TestBaseBTableShape(t *testing.T) {
	rows := BaseBTable([]int{16}, []float64{0, math.Sqrt2, 2}, 20000, 150, 11)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// NRMSE should increase with base and track the analysis curve.
	if !(rows[0].NRMSE < rows[2].NRMSE) {
		t.Errorf("full-rank NRMSE %g not below base-2 %g", rows[0].NRMSE, rows[2].NRMSE)
	}
	for _, r := range rows {
		if math.Abs(r.NRMSE-r.Analysis) > 0.45*r.Analysis {
			t.Errorf("k=%d b=%g: NRMSE %g vs analysis %g", r.K, r.Base, r.NRMSE, r.Analysis)
		}
	}
}

func TestHLLConstantsTable(t *testing.T) {
	rows := HLLConstantsTable([]int{16, 32}, 30000, 200, 13)
	for _, r := range rows {
		// Paper: HLL ~ 1.04-1.08, HIP ~ 0.866; ratio ~1.2-1.25.
		if r.HIPConst < 0.6 || r.HIPConst > 1.15 {
			t.Errorf("k=%d: HIP constant %g far from 0.866", r.K, r.HIPConst)
		}
		if r.Ratio < 1.02 {
			t.Errorf("k=%d: HLL/HIP ratio %g, want > 1", r.K, r.Ratio)
		}
	}
}
