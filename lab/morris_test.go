package lab

import (
	"math"
	"testing"

	"adsketch/internal/stats"
)

func TestMorrisUnitIncrementsUnbiased(t *testing.T) {
	const n, runs = 10000, 800
	for _, b := range []float64{2, 1.5, 1.0625} {
		acc := stats.NewErrAccum(n)
		for run := 0; run < runs; run++ {
			m := NewMorris(b, uint64(run)*6700417+1)
			for i := 0; i < n; i++ {
				m.Increment()
			}
			acc.Add(m.Estimate())
		}
		// The estimator is unbiased; tolerate 4 standard errors of the
		// run mean (the per-run CV is ~sqrt((b-1)/2), large for big b).
		cv := math.Sqrt((b - 1) / 2)
		tol := 4*cv/math.Sqrt(runs) + 0.005
		if bias := acc.Bias(); math.Abs(bias) > tol {
			t.Errorf("base %g: bias = %+.3f (tolerance %.3f)", b, bias, tol)
		}
		if acc.NRMSE() > 1.5*cv+0.02 {
			t.Errorf("base %g: NRMSE %g, want ~%g", b, acc.NRMSE(), cv)
		}
	}
}

func TestMorrisWeightedAddsUnbiased(t *testing.T) {
	// Weighted updates of varying magnitude; total is fixed.
	const runs = 400
	weights := []float64{1, 3.5, 0.25, 120, 7, 0.01, 42, 1000, 5.5}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	acc := stats.NewErrAccum(total)
	for run := 0; run < runs; run++ {
		m := NewMorris(1.5, uint64(run)*31337+7)
		for _, w := range weights {
			m.Add(w)
		}
		acc.Add(m.Estimate())
	}
	if bias := acc.Bias(); math.Abs(bias) > 0.06 {
		t.Errorf("bias = %+.3f", bias)
	}
}

func TestMorrisLargeSingleAddNearExact(t *testing.T) {
	// A single large add is mostly deterministic: only the leftover below
	// one register step is stochastic.
	m := NewMorris(2, 3)
	m.Add(1 << 20)
	got := m.Estimate()
	if got < (1<<20)-1 || got > (1<<21) {
		t.Errorf("estimate %g for single add of 2^20", got)
	}
}

func TestMorrisMergeUnbiased(t *testing.T) {
	const runs = 500
	acc := stats.NewErrAccum(3000)
	for run := 0; run < runs; run++ {
		a := NewMorris(1.25, uint64(run)*97+1)
		b := NewMorris(1.25, uint64(run)*89+2)
		for i := 0; i < 1000; i++ {
			a.Increment()
		}
		for i := 0; i < 2000; i++ {
			b.Increment()
		}
		a.Merge(b)
		acc.Add(a.Estimate())
	}
	if bias := acc.Bias(); math.Abs(bias) > 0.05 {
		t.Errorf("merge bias = %+.3f", bias)
	}
}

func TestMorrisCompactness(t *testing.T) {
	// Counting to a million must use O(log log n) bits of register.
	m := NewMorris(2, 5)
	for i := 0; i < 1000000; i++ {
		m.Increment()
	}
	if m.X() > 40 {
		t.Errorf("exponent %d way above log2(1e6)", m.X())
	}
	if m.Bits() > 6 {
		t.Errorf("register bits = %d, want <= 6", m.Bits())
	}
	zero := NewMorris(2, 1)
	if zero.Bits() != 1 {
		t.Errorf("zero counter bits = %d", zero.Bits())
	}
	if zero.Estimate() != 0 {
		t.Errorf("zero counter estimate = %g", zero.Estimate())
	}
	if zero.Base() != 2 {
		t.Error("Base accessor")
	}
}

func TestMorrisSmallBaseMoreAccurate(t *testing.T) {
	const n, runs = 5000, 300
	nrmse := func(b float64) float64 {
		acc := stats.NewErrAccum(n)
		for run := 0; run < runs; run++ {
			m := NewMorris(b, uint64(run)*193939+11)
			for i := 0; i < n; i++ {
				m.Increment()
			}
			acc.Add(m.Estimate())
		}
		return acc.NRMSE()
	}
	if e16, e2 := nrmse(1.0625), nrmse(2); e16 >= e2 {
		t.Errorf("base 1.0625 NRMSE %g not below base 2 %g", e16, e2)
	}
}

func TestMorrisAddZeroNoop(t *testing.T) {
	m := NewMorris(2, 1)
	m.Add(0)
	if m.X() != 0 {
		t.Error("Add(0) changed counter")
	}
}

func TestMorrisPanics(t *testing.T) {
	check := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	check("base 1", func() { NewMorris(1, 1) })
	check("negative add", func() { NewMorris(2, 1).Add(-1) })
	check("mismatched merge", func() { NewMorris(2, 1).Merge(NewMorris(3, 2)) })
}

func TestMorrisHIPRegisterUseCase(t *testing.T) {
	// Section 7: accumulating HIP adjusted weights (increasing, ~1/k of
	// the total each) with b = 1+1/k keeps the error near (b-1).
	const k = 16
	const runs = 300
	b := 1 + 1.0/k
	// Simulate HIP-like increments: weight i/k at step i.
	var weights []float64
	total := 0.0
	for i := 1; i <= 400; i++ {
		w := float64(i) / k
		weights = append(weights, w)
		total += w
	}
	acc := stats.NewErrAccum(total)
	for run := 0; run < runs; run++ {
		m := NewMorris(b, uint64(run)*277+3)
		for _, w := range weights {
			m.Add(w)
		}
		acc.Add(m.Estimate())
	}
	if bias := acc.Bias(); math.Abs(bias) > 0.05 {
		t.Errorf("bias = %+.3f", bias)
	}
	if acc.NRMSE() > 3*(b-1) {
		t.Errorf("NRMSE %g far above ~(b-1)=%g", acc.NRMSE(), b-1)
	}
}
