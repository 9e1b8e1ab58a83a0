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
	src := rank.NewSource(cfg.Seed + run*0x9e3779b97f4a7c15 + 1)
	rng := rank.NewRNG(cfg.Seed ^ (run*0xa24baed4963ee407 + 7))
	perm := rng.Perm(cfg.MaxN)

	// Online states.
	km := newKMinsState(k, src)
	kp := newKPartState(k, src)
	bk := newBottomKState(k)
	pe := newPermState(cfg.MaxN, k)

	checkpoints := Checkpoints(cfg.MaxN, cfg.PerDecade)
	ci := 0
	for i := 0; i < cfg.MaxN; i++ {
		id := int64(i)
		km.add(id)
		kp.add(id)
		bk.add(src.Rank(id))
		pe.add(perm[i] + 1)
		if ci < len(checkpoints) && i+1 == checkpoints[ci] {
			truth := float64(i + 1)
			x := truth
			out[0].Add(x, truth, km.estimate())
			out[1].Add(x, truth, kp.estimate())
			out[2].Add(x, truth, bk.basic())
			out[3].Add(x, truth, bk.hipCount)
			out[4].Add(x, truth, pe.estimate())
			ci++
		}
	}
}

// kminsState maintains the k per-permutation minima and the running sum of
// exponential transforms for O(1) basic estimates.
type kminsState struct {
	k    int
	src  rank.Source
	mins []float64
	sumY float64 // sum of -ln(1-min_h) over permutations
	any  bool
}

func newKMinsState(k int, src rank.Source) *kminsState {
	s := &kminsState{k: k, src: src, mins: make([]float64, k)}
	for i := range s.mins {
		s.mins[i] = 1
	}
	return s
}

func (s *kminsState) add(id int64) {
	for h := 0; h < s.k; h++ {
		if r := s.src.RankAt(h, id); r < s.mins[h] {
			if s.any {
				s.sumY -= -math.Log1p(-s.mins[h])
			}
			s.sumY += -math.Log1p(-r)
			s.mins[h] = r
		}
	}
	if !s.any {
		// After the first element every permutation has a finite minimum;
		// recompute the sum cleanly (the "previous" values were the
		// supremum 1 whose transform is infinite).
		s.sumY = 0
		for _, m := range s.mins {
			s.sumY += -math.Log1p(-m)
		}
		s.any = true
	}
}

func (s *kminsState) estimate() float64 {
	if !s.any || s.sumY <= 0 {
		return 0
	}
	if s.k == 1 {
		return 1 / s.sumY
	}
	return float64(s.k-1) / s.sumY
}

// kpartState maintains per-bucket minima, the count of nonempty buckets,
// and the running transform sum.
type kpartState struct {
	k      int
	src    rank.Source
	mins   []float64
	sumY   float64
	kPrime int
}

func newKPartState(k int, src rank.Source) *kpartState {
	s := &kpartState{k: k, src: src, mins: make([]float64, k)}
	for i := range s.mins {
		s.mins[i] = 1
	}
	return s
}

func (s *kpartState) add(id int64) {
	b := s.src.Bucket(id, s.k)
	r := s.src.Rank(id)
	if r >= s.mins[b] {
		return
	}
	if s.mins[b] == 1 {
		s.kPrime++
	} else {
		s.sumY -= -math.Log1p(-s.mins[b])
	}
	s.sumY += -math.Log1p(-r)
	s.mins[b] = r
}

func (s *kpartState) estimate() float64 {
	if s.kPrime <= 1 || s.sumY <= 0 {
		return 0
	}
	return float64(s.kPrime) * float64(s.kPrime-1) / s.sumY
}

// bottomKState maintains the k smallest ranks, the basic estimate, and the
// running HIP count.
type bottomKState struct {
	k        int
	ranks    []float64 // ascending, len <= k
	hipCount float64
}

func newBottomKState(k int) *bottomKState {
	return &bottomKState{k: k, ranks: make([]float64, 0, k)}
}

func (s *bottomKState) add(r float64) {
	tau := 1.0
	if len(s.ranks) >= s.k {
		tau = s.ranks[s.k-1]
	}
	if r >= tau {
		return
	}
	s.hipCount += 1 / tau
	i := 0
	for i < len(s.ranks) && s.ranks[i] < r {
		i++
	}
	if len(s.ranks) < s.k {
		s.ranks = append(s.ranks, 0)
	}
	copy(s.ranks[i+1:], s.ranks[i:])
	s.ranks[i] = r
}

func (s *bottomKState) basic() float64 {
	if len(s.ranks) < s.k {
		return float64(len(s.ranks))
	}
	return float64(s.k-1) / s.ranks[s.k-1]
}

// permState is a lean version of core.PermutationEstimator (no duplicate
// guard; the simulation streams distinct elements).
type permState struct {
	n, k  int
	ranks []int
	sHat  float64
}

func newPermState(n, k int) *permState {
	return &permState{n: n, k: k, ranks: make([]int, 0, k)}
}

func (s *permState) add(sigma int) {
	if len(s.ranks) < s.k {
		s.insert(sigma)
		s.sHat++
		return
	}
	mu := s.ranks[s.k-1]
	if sigma >= mu {
		return
	}
	s.sHat += (float64(s.n) - s.sHat + 1) / float64(mu-s.k+1)
	s.insert(sigma)
}

func (s *permState) insert(sigma int) {
	i := 0
	for i < len(s.ranks) && s.ranks[i] < sigma {
		i++
	}
	if len(s.ranks) < s.k {
		s.ranks = append(s.ranks, 0)
	}
	copy(s.ranks[i+1:], s.ranks[i:])
	s.ranks[i] = sigma
}

func (s *permState) estimate() float64 {
	if len(s.ranks) == s.k && s.ranks[s.k-1] == s.k {
		return s.sHat*float64(s.k+1)/float64(s.k) - 1
	}
	return s.sHat
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
