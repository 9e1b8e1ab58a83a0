package sketch_test

// The basic estimators' statistics, measured on the MinHash sketches that
// lab's counters keep: each counter's BasicEstimate is this package's
// formula over its own minima.

import (
	"math"
	"testing"

	"adsketch/internal/stats"
	"adsketch/lab"
)

// basicCounter is a distinct counter with its Section 4 readout.
type basicCounter interface {
	lab.DistinctCounter
	BasicEstimate() float64
}

// basicStats runs a counter's basic estimator over many seeds at
// cardinality n and returns mean and NRMSE.
func basicStats(n, runs int, mk func(seed uint64) basicCounter) (mean, nrmse float64) {
	acc := stats.NewErrAccum(float64(n))
	var sum float64
	for run := 0; run < runs; run++ {
		c := mk(uint64(run)*2654435761 + 17)
		for id := int64(0); id < int64(n); id++ {
			c.Add(id)
		}
		est := c.BasicEstimate()
		acc.Add(est)
		sum += est
	}
	return sum / float64(runs), acc.NRMSE()
}

func TestBottomKInsertionProbability(t *testing.T) {
	// The i-th distinct element (i>k) modifies the sketch with probability
	// k/i; total modifications over n elements ~ k + k(H_n - H_k)
	// (Lemma 2.2).  Check the mean over repeats.
	const k, n, runs = 4, 500, 300
	var total float64
	for run := 0; run < runs; run++ {
		c := lab.NewBottomKDistinct(k, uint64(run)+10)
		for id := int64(0); id < n; id++ {
			if c.Add(id) {
				total++
			}
		}
	}
	got := total / runs
	want := stats.ExpectedBottomKADSSize(n, k)
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("mean modifications = %g, want ~%g", got, want)
	}
}

func TestBottomKEstimateUnbiasedAndCV(t *testing.T) {
	const k, n, runs = 16, 2000, 400
	mean, nrmse := basicStats(n, runs, func(seed uint64) basicCounter {
		return lab.NewBottomKDistinct(k, seed)
	})
	if math.Abs(mean-n)/n > 0.05 {
		t.Errorf("bottom-k mean = %g, want ~%d (bias too large)", mean, n)
	}
	// CV should be near (and below ~1.3x of) the 1/sqrt(k-2) bound.
	bound := stats.BasicCV(k)
	if nrmse > 1.3*bound {
		t.Errorf("bottom-k NRMSE = %g, above bound %g", nrmse, bound)
	}
	if nrmse < 0.5*bound {
		t.Errorf("bottom-k NRMSE = %g suspiciously below theory %g", nrmse, bound)
	}
}

func TestBottomKEstimateExactSmall(t *testing.T) {
	c := lab.NewBottomKDistinct(10, 3)
	for id := int64(0); id < 7; id++ {
		c.Add(id)
	}
	if c.BasicEstimate() != 7 {
		t.Errorf("estimate = %g, want exactly 7", c.BasicEstimate())
	}
}

func TestBottomKPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 did not panic")
		}
	}()
	lab.NewBottomKDistinct(0, 1)
}

func TestKMinsEstimateUnbiasedAndCV(t *testing.T) {
	const k, n, runs = 16, 2000, 400
	mean, nrmse := basicStats(n, runs, func(seed uint64) basicCounter {
		return lab.NewKMinsDistinct(k, seed)
	})
	if math.Abs(mean-n)/n > 0.05 {
		t.Errorf("k-mins mean = %g, want ~%d", mean, n)
	}
	want := stats.BasicCV(k)
	if nrmse > 1.35*want || nrmse < 0.65*want {
		t.Errorf("k-mins NRMSE = %g, want ~%g", nrmse, want)
	}
}

func TestKPartitionEstimateLargeN(t *testing.T) {
	const k, n, runs = 16, 4000, 300
	mean, nrmse := basicStats(n, runs, func(seed uint64) basicCounter {
		return lab.NewKPartitionDistinct(k, seed)
	})
	if math.Abs(mean-n)/n > 0.08 {
		t.Errorf("k-partition mean = %g, want ~%d", mean, n)
	}
	// For n >> k behaves like the other flavors.
	if nrmse > 1.5*stats.BasicCV(k) {
		t.Errorf("k-partition NRMSE = %g, want ~%g", nrmse, stats.BasicCV(k))
	}
}

func TestKPartitionBiasedDownSmallN(t *testing.T) {
	// Section 4.3: for n <= 2k the k-partition estimator is noticeably
	// biased down (empty buckets).
	const k, n, runs = 16, 8, 500
	mean, _ := basicStats(n, runs, func(seed uint64) basicCounter {
		return lab.NewKPartitionDistinct(k, seed)
	})
	if mean >= float64(n) {
		t.Errorf("k-partition at n=%d should be biased down, mean = %g", n, mean)
	}
}
