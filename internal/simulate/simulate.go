// Package simulate is the experiment harness that regenerates the paper's
// evaluation: the neighborhood-cardinality error curves of Figure 2, the
// distinct-counting comparison of Figure 3, and the quantitative tables
// behind the in-text claims (ADS sizes of Lemma 2.2, the base-b variance
// trade-off of Section 5.6, the HLL-vs-HIP constants of Section 6).
//
// Following Section 5.5, the Figure 2 simulation runs on a stream of
// distinct elements: "the structure of the ADS and the behavior of the
// estimator as a function of the cardinality do not depend on the graph
// structure", so the estimate at cardinality i is taken after processing i
// elements.  Estimates are recorded at logarithmically spaced checkpoints
// (the paper plots every cardinality; checkpoints only thin the x-axis,
// not the estimators).
package simulate

import (
	"math"
	"runtime"
	"strconv"
	"sync"

	"adsketch/internal/rank"
	"adsketch/internal/stats"
	"adsketch/lab"
)

// Checkpoints returns ~perDecade logarithmically spaced integers in
// [1, max], always including 1 and max.
func Checkpoints(max, perDecade int) []int {
	if max < 1 {
		return nil
	}
	ratio := math.Pow(10, 1/float64(perDecade))
	var out []int
	last := 0
	for x := 1.0; ; x *= ratio {
		i := int(math.Round(x))
		if i > max {
			break
		}
		if i > last {
			out = append(out, i)
			last = i
		}
	}
	if last < max {
		out = append(out, max)
	}
	return out
}

// Fig2Config parameterizes one panel row of Figure 2.
type Fig2Config struct {
	K          int    // sketch parameter
	MaxN       int    // largest cardinality (10000 or 50000 in the paper)
	Runs       int    // independent rank randomizations
	Seed       uint64 // base seed
	PerDecade  int    // checkpoint density (default 20)
	Goroutines int    // parallel workers (default GOMAXPROCS)
}

// Figure 2 series names.
const (
	SeriesKMinsBasic  = "kmins basic"
	SeriesKPartBasic  = "kpart basic"
	SeriesBottomBasic = "botk basic"
	SeriesBottomHIP   = "botk HIP"
	SeriesPerm        = "perm"
)

// Figure2 runs the Section 5.5 simulation and returns a panel with the
// five estimator series (NRMSE and MRE are both recorded per point).
func Figure2(cfg Fig2Config) *stats.Panel {
	if cfg.PerDecade <= 0 {
		cfg.PerDecade = 20
	}
	panel := stats.NewPanel("Figure 2: neighborhood size estimators, k=" +
		itoa(cfg.K) + ", " + itoa(cfg.Runs) + " runs, max n = " + itoa(cfg.MaxN))
	names := []string{SeriesKMinsBasic, SeriesKPartBasic, SeriesBottomBasic, SeriesBottomHIP, SeriesPerm}
	for _, name := range names {
		panel.AddSeries(name)
	}
	merge := parallelRuns(cfg.Runs, cfg.Goroutines, func(run int) []*stats.Series {
		out := make([]*stats.Series, len(names))
		for i, name := range names {
			out[i] = stats.NewSeries(name)
		}
		fig2Run(cfg, uint64(run), out)
		return out
	})
	for i, s := range panel.Series {
		for _, part := range merge {
			s.Merge(part[i])
		}
	}
	return panel
}

// fig2Run performs one randomization: stream cfg.MaxN distinct elements,
// maintaining all five estimators online, recording at checkpoints.
func fig2Run(cfg Fig2Config, run uint64, out []*stats.Series) {
	k := cfg.K
	seed := cfg.Seed + run*0x9e3779b97f4a7c15 + 1
	rng := rank.NewRNG(cfg.Seed ^ (run*0xa24baed4963ee407 + 7))
	perm := rng.Perm(cfg.MaxN)

	km := lab.NewKMinsDistinct(k, seed)
	kp := lab.NewKPartitionDistinct(k, seed)
	bk := lab.NewBottomKDistinct(k, seed)
	pe := NewPermutationEstimator(cfg.MaxN, k)

	checkpoints := Checkpoints(cfg.MaxN, cfg.PerDecade)
	ci := 0
	for i := 0; i < cfg.MaxN; i++ {
		id := int64(i)
		km.Add(id)
		kp.Add(id)
		bk.Add(id)
		pe.Offer(perm[i] + 1)
		if ci < len(checkpoints) && i+1 == checkpoints[ci] {
			truth := float64(i + 1)
			x := truth
			out[0].Add(x, truth, km.BasicEstimate())
			out[1].Add(x, truth, kp.BasicEstimate())
			out[2].Add(x, truth, bk.BasicEstimate())
			out[3].Add(x, truth, bk.Estimate())
			out[4].Add(x, truth, pe.Estimate())
			ci++
		}
	}
}

// Fig3Config parameterizes one panel row of Figure 3.
type Fig3Config struct {
	K          int // registers (16, 32, 64 in the paper)
	MaxN       int // largest cardinality (10^6 in the paper)
	Runs       int
	Seed       uint64
	PerDecade  int
	Goroutines int
}

// Figure 3 series names.
const (
	SeriesHLLRaw = "HLLraw"
	SeriesHLL    = "HLL"
	SeriesHIP    = "HIP"
)

// Figure3 runs the Section 6 comparison: HLL raw, HLL bias-corrected, and
// HIP, all reading the same k-partition base-2 5-bit-register sketch.
func Figure3(cfg Fig3Config) *stats.Panel {
	if cfg.PerDecade <= 0 {
		cfg.PerDecade = 10
	}
	panel := stats.NewPanel("Figure 3: HLL vs HIP, k=" + itoa(cfg.K) +
		", " + itoa(cfg.Runs) + " runs, max n = " + itoa(cfg.MaxN))
	names := []string{SeriesHLLRaw, SeriesHLL, SeriesHIP}
	for _, name := range names {
		panel.AddSeries(name)
	}
	checkpoints := Checkpoints(cfg.MaxN, cfg.PerDecade)
	merge := parallelRuns(cfg.Runs, cfg.Goroutines, func(run int) []*stats.Series {
		out := make([]*stats.Series, len(names))
		for i, name := range names {
			out[i] = stats.NewSeries(name)
		}
		h := lab.NewHIPDistinct(cfg.K, cfg.Seed+uint64(run)*0x9e3779b97f4a7c15+11)
		ci := 0
		for i := 0; i < cfg.MaxN; i++ {
			h.Add(int64(i))
			if ci < len(checkpoints) && i+1 == checkpoints[ci] {
				truth := float64(i + 1)
				out[0].Add(truth, truth, h.Sketch().RawEstimate())
				out[1].Add(truth, truth, h.Sketch().Estimate())
				out[2].Add(truth, truth, h.Estimate())
				ci++
			}
		}
		return out
	})
	for i, s := range panel.Series {
		for _, part := range merge {
			s.Merge(part[i])
		}
	}
	return panel
}

// parallelRuns executes fn over run indices with bounded workers, returning
// the per-run results.
func parallelRuns[T any](runs, workers int, fn func(run int) T) []T {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > runs {
		workers = runs
	}
	out := make([]T, runs)
	if workers <= 1 {
		for i := 0; i < runs; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = fn(i)
			}
		}()
	}
	for i := 0; i < runs; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

func itoa(i int) string { return strconv.Itoa(i) }
