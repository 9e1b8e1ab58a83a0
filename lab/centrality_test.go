package lab

import (
	"math"
	"testing"

	"adsketch/internal/core"
	"adsketch/internal/graph"
	"adsketch/internal/stats"
)

func buildEstimator(t *testing.T, g *graph.Graph, k int, seed uint64) *Centrality {
	t.Helper()
	set, err := core.BuildSet(g, core.Options{K: k, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return NewCentrality(set)
}

func TestNeighborhoodSizeUnbiased(t *testing.T) {
	g := graph.PreferentialAttachment(400, 3, 1)
	exact := float64(ExactNeighborhoodSize(g, 17, 2))
	const runs = 250
	acc := stats.NewErrAccum(exact)
	for run := 0; run < runs; run++ {
		e := buildEstimator(t, g, 8, uint64(run)+100)
		acc.Add(e.NeighborhoodSize(17, 2))
	}
	if bias := acc.Bias(); math.Abs(bias) > 0.05 {
		t.Errorf("neighborhood size bias = %+.3f (exact %g)", bias, exact)
	}
}

func TestReachableExactOnConnected(t *testing.T) {
	g := graph.Cycle(100)
	e := buildEstimator(t, g, 4, 7)
	for _, v := range []int32{0, 42} {
		got := e.Reachable(v)
		// HIP estimate of a fixed quantity is random but should be near n.
		if got < 30 || got > 300 {
			t.Errorf("reachable(%d) = %g, want ~100", v, got)
		}
	}
}

func TestClosenessAgainstExact(t *testing.T) {
	g := graph.GNP(300, 0.03, false, 5)
	const v = 11
	exactSum := 0.0
	for _, nd := range graph.NearestOrder(g, v) {
		exactSum += nd.Dist
	}
	const runs = 250
	acc := stats.NewErrAccum(exactSum)
	for run := 0; run < runs; run++ {
		e := buildEstimator(t, g, 8, uint64(run)+3000)
		acc.Add(e.SumDistances(v))
	}
	if bias := acc.Bias(); math.Abs(bias) > 0.05 {
		t.Errorf("sum-of-distances bias = %+.3f", bias)
	}
	if acc.NRMSE() > 1.5*stats.HIPCV(8) {
		t.Errorf("sum-of-distances NRMSE %g above ~HIP bound %g", acc.NRMSE(), stats.HIPCV(8))
	}
	// Closeness = 1/SumDistances.
	e := buildEstimator(t, g, 8, 1)
	if got, want := e.Closeness(v), 1/e.SumDistances(v); math.Abs(got-want) > 1e-12 {
		t.Errorf("Closeness inconsistency: %g vs %g", got, want)
	}
}

func TestClosenessZeroForIsolated(t *testing.T) {
	g := graph.NewBuilder(3, false).Build() // no edges
	e := buildEstimator(t, g, 2, 1)
	if got := e.Closeness(0); got != 0 {
		t.Errorf("isolated closeness = %g, want 0", got)
	}
}

func TestHarmonicAndExponentialDecay(t *testing.T) {
	g := graph.Grid(12, 12)
	const v = 40
	exactH := ExactHarmonic(g, v)
	exactE := ExactExponentialDecay(g, v)
	const runs = 250
	accH := stats.NewErrAccum(exactH)
	accE := stats.NewErrAccum(exactE)
	for run := 0; run < runs; run++ {
		e := buildEstimator(t, g, 8, uint64(run)+500)
		accH.Add(e.Harmonic(v))
		accE.Add(e.ExponentialDecay(v))
	}
	if bias := accH.Bias(); math.Abs(bias) > 0.06 {
		t.Errorf("harmonic bias = %+.3f", bias)
	}
	if bias := accE.Bias(); math.Abs(bias) > 0.06 {
		t.Errorf("exponential-decay bias = %+.3f", bias)
	}
}

func TestCustomBetaFilter(t *testing.T) {
	g := graph.PreferentialAttachment(200, 2, 9)
	attr := make([]float64, g.NumNodes())
	for i := range attr {
		if i%3 == 0 {
			attr[i] = 2.5
		}
	}
	beta := func(n int32) float64 { return attr[n] }
	const v = 33
	exact := 0.0
	for _, nd := range graph.NearestOrder(g, v) {
		if nd.Dist <= 2 {
			exact += attr[nd.Node]
		}
	}
	const runs = 300
	acc := stats.NewErrAccum(exact)
	for run := 0; run < runs; run++ {
		e := buildEstimator(t, g, 8, uint64(run)+800)
		acc.Add(e.Custom(v, core.KernelThreshold(2), beta))
	}
	if bias := acc.Bias(); math.Abs(bias) > 0.06 {
		t.Errorf("custom beta bias = %+.3f (exact %g)", bias, exact)
	}
}

func TestDistanceDistributionMatchesExact(t *testing.T) {
	g := graph.Grid(10, 10)
	nf := ExactNeighborhoodFunction(g)
	ds := []float64{0, 1, 2, 5, 10, 18}
	const runs = 120
	accs := make([]*stats.ErrAccum, len(ds))
	for i, d := range ds {
		t := int(d)
		if t >= len(nf) {
			t = len(nf) - 1
		}
		accs[i] = stats.NewErrAccum(float64(nf[t]))
	}
	for run := 0; run < runs; run++ {
		e := buildEstimator(t, g, 8, uint64(run)+1700)
		got := e.DistanceDistribution(ds)
		for i := range ds {
			accs[i].Add(got[i])
		}
	}
	for i, d := range ds {
		if bias := accs[i].Bias(); math.Abs(bias) > 0.05 {
			t.Errorf("distance distribution at d=%g: bias %+.3f", d, bias)
		}
	}
	// d=0 should be exactly n (every sketch holds its owner with weight 1).
	e := buildEstimator(t, g, 4, 3)
	if got := e.DistanceDistribution([]float64{0})[0]; got != 100 {
		t.Errorf("pairs within 0 = %g, want exactly 100", got)
	}
	// Each d is answered whatever the order of ds: reversed, the
	// readouts are the same, element for element.
	got, rev := e.DistanceDistribution(ds), make([]float64, len(ds))
	for i, d := range ds {
		rev[len(ds)-1-i] = d
	}
	for i, r := range e.DistanceDistribution(rev) {
		if want := got[len(ds)-1-i]; r != want {
			t.Errorf("reversed ds: pairs within %g = %g, ascending %g", rev[i], r, want)
		}
	}
}

func TestTopClosenessOverlap(t *testing.T) {
	// On a small-diameter BA graph closeness scores bunch tightly, so an
	// exact match of the top-10 is not a fair ask of any sketch; what must
	// hold is that the estimated top-10 lands inside the true near-top.
	g := graph.PreferentialAttachment(300, 3, 21)
	exactTop30 := ExactTopCloseness(g, 30)
	inTop30 := map[int32]bool{}
	for _, r := range exactTop30 {
		inTop30[r.Node] = true
	}
	hits, total := 0, 0
	for seed := uint64(0); seed < 5; seed++ {
		e := buildEstimator(t, g, 64, seed*17+9)
		estTop := e.TopCloseness(10)
		if len(estTop) != 10 {
			t.Fatalf("top list length %d", len(estTop))
		}
		for _, r := range estTop {
			total++
			if inTop30[r.Node] {
				hits++
			}
		}
		// Scores sorted descending.
		for i := 1; i < len(estTop); i++ {
			if estTop[i].Score > estTop[i-1].Score {
				t.Fatal("top list not sorted")
			}
		}
	}
	if precision := float64(hits) / float64(total); precision < 0.75 {
		t.Errorf("estimated top-10 inside exact top-30: precision %g, want >= 0.75", precision)
	}
}

func TestTopHarmonicRuns(t *testing.T) {
	g := graph.Star(50)
	e := buildEstimator(t, g, 8, 2)
	top := e.TopHarmonic(3)
	if top[0].Node != 0 {
		t.Errorf("star center not top harmonic node: %+v", top[0])
	}
	if e.Set() == nil {
		t.Error("Set accessor")
	}
}

func TestTopOverlapEdgeCases(t *testing.T) {
	if TopOverlap(nil, nil) != 0 {
		t.Error("empty overlap should be 0")
	}
	a := []Ranked{{Node: 1, Score: 1}, {Node: 2, Score: 0.5}}
	if got := TopOverlap(a, a); got != 1 {
		t.Errorf("self overlap = %g", got)
	}
	b := []Ranked{{Node: 3, Score: 1}, {Node: 4, Score: 0.5}}
	if got := TopOverlap(a, b); got != 0 {
		t.Errorf("disjoint overlap = %g", got)
	}
}

func TestExactTopClosenessTruncation(t *testing.T) {
	g := graph.Path(5)
	top := ExactTopCloseness(g, 100)
	if len(top) != 5 {
		t.Errorf("truncation failed: %d", len(top))
	}
	// Path centers maximize closeness.
	if top[0].Node != 2 {
		t.Errorf("path center not first: %+v", top[0])
	}
}

func TestSpearmanRho(t *testing.T) {
	if got := SpearmanRho([]float64{1, 2, 3, 4}, []float64{2, 4, 6, 8}); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect correlation = %g", got)
	}
	if got := SpearmanRho([]float64{1, 2, 3}, []float64{3, 2, 1}); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %g", got)
	}
	if got := SpearmanRho([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("constant vector correlation = %g", got)
	}
	if got := SpearmanRho([]float64{1}, []float64{2}); got != 0 {
		t.Errorf("degenerate input = %g", got)
	}
	if got := SpearmanRho([]float64{1, 2}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("mismatched lengths = %g", got)
	}
	// Ties averaged: x = {1,1,2}, y = {1,2,3}: ranks x = {1.5,1.5,3}.
	got := SpearmanRho([]float64{1, 1, 2}, []float64{1, 2, 3})
	if got <= 0.5 || got >= 1 {
		t.Errorf("tied correlation = %g, want in (0.5, 1)", got)
	}
}

func TestEstimatedClosenessCorrelatesWithExact(t *testing.T) {
	// A grid has a strong closeness gradient (center vs corners), so the
	// estimated ranking must correlate strongly with the exact one.  (On
	// small-diameter expanders closeness values bunch within the sketch
	// noise and rank agreement is inherently weak for any sketch.)
	g := graph.Grid(14, 14)
	e := buildEstimator(t, g, 32, 5)
	est := make([]float64, g.NumNodes())
	exact := make([]float64, g.NumNodes())
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		est[v] = e.Closeness(v)
		exact[v] = ExactCloseness(g, v)
	}
	if rho := SpearmanRho(est, exact); rho < 0.85 {
		t.Errorf("Spearman rho = %g, want strong rank agreement", rho)
	}
}

func TestExactNeighborhoodSize(t *testing.T) {
	g := graph.Path(7)
	if got := ExactNeighborhoodSize(g, 3, 0); got != 1 {
		t.Errorf("n_0 = %d, want 1", got)
	}
	if got := ExactNeighborhoodSize(g, 3, 2); got != 5 {
		t.Errorf("n_2 = %d, want 5", got)
	}
	if got := ExactNeighborhoodSize(g, 3, 100); got != 7 {
		t.Errorf("n_100 = %d, want 7", got)
	}
}

func TestExactNeighborhoodFunctionPath(t *testing.T) {
	g := graph.Path(4)
	nf := ExactNeighborhoodFunction(g)
	// Pairs within 0 hops: 4 (self). 1 hop: +6 ordered. 2: +4. 3: +2.
	want := []int64{4, 10, 14, 16}
	if len(nf) != len(want) {
		t.Fatalf("nf = %v, want %v", nf, want)
	}
	for i := range want {
		if nf[i] != want[i] {
			t.Errorf("nf[%d] = %d, want %d", i, nf[i], want[i])
		}
	}
}

func TestEffectiveDiameter(t *testing.T) {
	nf := floatCounts([]int64{4, 10, 14, 16})
	if got := EffectiveDiameter(nf, 1.0); got != 3 {
		t.Errorf("q=1 diameter = %g, want 3", got)
	}
	if got := EffectiveDiameter(nf, 0.25); got != 0 {
		t.Errorf("q=0.25 diameter = %g, want 0", got)
	}
	got := EffectiveDiameter(nf, 0.75)
	// target = 12, between nf[1]=10 and nf[2]=14 -> 1.5
	if math.Abs(got-1.5) > 1e-12 {
		t.Errorf("q=0.75 diameter = %g, want 1.5", got)
	}
	if got := EffectiveDiameter(nil, 0.9); got != 0 {
		t.Errorf("empty nf diameter = %g", got)
	}
}

func TestExactClosenessAndHarmonic(t *testing.T) {
	g := graph.Path(3)
	// From node 0: distances 1,2 -> closeness 1/3, harmonic 1.5.
	if got := ExactCloseness(g, 0); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("closeness = %g, want 1/3", got)
	}
	if got := ExactHarmonic(g, 0); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("harmonic = %g, want 1.5", got)
	}
	// From the center: distances 1,1 -> closeness 1/2, harmonic 2.
	if got := ExactCloseness(g, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("center closeness = %g, want 0.5", got)
	}
	lone := graph.NewBuilder(1, false).Build()
	if got := ExactCloseness(lone, 0); got != 0 {
		t.Errorf("singleton closeness = %g, want 0", got)
	}
}
