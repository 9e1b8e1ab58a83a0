package core

import (
	"math"
	"strings"
	"testing"

	"adsketch/internal/graph"
	"adsketch/internal/rank"
	"adsketch/internal/sketch"
	"adsketch/internal/stats"
)

// streamADS offers elements 0..n-1 in order, element i at distance i with
// rank src.Rank(i), to a bottom-k ADS owned by element 0: the sketch of a
// stream of distinct elements.
func streamADS(k, n int, src rank.Source) *ADS {
	return offerStream(k, n, src, func(i int64) float64 { return float64(i) })
}

// offerStream is streamADS with element i at distance dist(i), which must
// not decrease: each element is kept iff its rank is below the k-th
// smallest kept before it, the threshold kept as it goes.
func offerStream(k, n int, src rank.Source, dist func(i int64) float64) *ADS {
	var entries []Entry
	h := newKSmallest(k)
	for i := int64(0); i < int64(n); i++ {
		if r := src.Rank(i); h.size() < k || r < h.max() {
			entries = append(entries, Entry{Node: int32(i), Dist: dist(i), Rank: r})
			h.offer(r)
		}
	}
	return adsOf(0, k, entries)
}

// TestHIPCVMatchesTheory: the bottom-k HIP CV should track the Theorem 5.1
// bound 1/sqrt(2(k-1)) for n >> k and never exceed it materially.
func TestHIPCVMatchesTheory(t *testing.T) {
	const n, runs = 2000, 500
	for _, k := range []int{4, 8, 16} {
		acc := stats.NewErrAccum(n)
		for run := 0; run < runs; run++ {
			s := streamADS(k, n, rank.NewSource(uint64(run)*2654435761+13))
			acc.Add(EstimateNeighborhoodHIP(s, n))
		}
		bound := stats.HIPCV(k)
		got := acc.NRMSE()
		if got > 1.15*bound {
			t.Errorf("k=%d: HIP NRMSE %g exceeds bound %g", k, got, bound)
		}
		if got < 0.6*bound {
			t.Errorf("k=%d: HIP NRMSE %g suspiciously below theory %g", k, got, bound)
		}
	}
}

// TestHIPHalvesBasicVariance is the headline claim (Theorem 5.1): HIP has
// about half the variance of the basic bottom-k estimator for n >> k, i.e.
// a factor-sqrt(2) lower NRMSE.
func TestHIPHalvesBasicVariance(t *testing.T) {
	const k, n, runs = 10, 3000, 600
	hip := stats.NewErrAccum(n)
	basic := stats.NewErrAccum(n)
	for run := 0; run < runs; run++ {
		s := streamADS(k, n, rank.NewSource(uint64(run)*40503+1))
		hip.Add(EstimateNeighborhoodHIP(s, n))
		basic.Add(s.EstimateNeighborhood(n))
	}
	ratio := basic.NRMSE() / hip.NRMSE()
	if ratio < 1.25 || ratio > 1.6 {
		t.Errorf("basic/HIP NRMSE ratio = %g, want ~sqrt(2)=1.414", ratio)
	}
}

// TestHIPExactForSmallN: for n <= k the estimate is exact with zero
// variance.
func TestHIPExactForSmallN(t *testing.T) {
	const k = 16
	for n := 1; n <= k; n++ {
		s := streamADS(k, n, rank.NewSource(99))
		if got := EstimateNeighborhoodHIP(s, float64(n)); got != float64(n) {
			t.Errorf("n=%d: HIP = %g, want exact", n, got)
		}
	}
}

// TestHIPPrefixEstimates: the HIP estimate at distance d estimates n_d for
// every prefix, not just the full set.
func TestHIPPrefixEstimates(t *testing.T) {
	const k, n, runs = 8, 1000, 300
	checkpoints := []int{50, 200, 500, 999}
	accs := make([]*stats.ErrAccum, len(checkpoints))
	for i, c := range checkpoints {
		accs[i] = stats.NewErrAccum(float64(c + 1))
	}
	for run := 0; run < runs; run++ {
		s := streamADS(k, n, rank.NewSource(uint64(run)*31+5))
		for i, c := range checkpoints {
			accs[i].Add(EstimateNeighborhoodHIP(s, float64(c)))
		}
	}
	for i, c := range checkpoints {
		if bias := accs[i].Bias(); math.Abs(bias) > 0.05 {
			t.Errorf("checkpoint %d: bias %+.3f", c, bias)
		}
		if nrmse := accs[i].NRMSE(); nrmse > 1.3*stats.HIPCV(k) {
			t.Errorf("checkpoint %d: NRMSE %g above bound %g", c, nrmse, 1.3*stats.HIPCV(k))
		}
	}
}

// TestQgOnGraphUnbiased: HIP Q_g estimation on a real graph against exact
// values, averaged over rank randomizations.
func TestQgOnGraphUnbiased(t *testing.T) {
	g := graph.PreferentialAttachment(300, 3, 77)
	gfun := func(node int32, dist float64) float64 {
		return 1 / (1 + dist) // distance-decaying statistic
	}
	exact := 0.0
	for _, nd := range graph.NearestOrder(g, 0) {
		exact += gfun(nd.Node, nd.Dist)
	}
	const runs = 250
	acc := stats.NewErrAccum(exact)
	for run := 0; run < runs; run++ {
		set, err := BuildSet(g, Options{K: 8, Seed: uint64(run) + 1})
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(EstimateQ(set.Sketch(0), gfun))
	}
	if bias := acc.Bias(); math.Abs(bias) > 0.05 {
		t.Errorf("Q_g bias = %+.3f, want ~0", bias)
	}
}

// TestCentralityOnGraph: harmonic and closeness-style centralities from the
// sketch against exact values.
func TestCentralityOnGraph(t *testing.T) {
	g := graph.GNP(250, 0.03, false, 88)
	exactHarmonic := exactHarmonic(g, 5)
	const runs = 250
	acc := stats.NewErrAccum(exactHarmonic)
	for run := 0; run < runs; run++ {
		set, err := BuildSet(g, Options{K: 8, Seed: uint64(run) + 500})
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(EstimateCentrality(set.Sketch(5), KernelHarmonic, UnitBeta))
	}
	if bias := acc.Bias(); math.Abs(bias) > 0.05 {
		t.Errorf("harmonic centrality bias = %+.3f", bias)
	}
	if nrmse := acc.NRMSE(); nrmse > 0.35 {
		t.Errorf("harmonic centrality NRMSE = %g, too high", nrmse)
	}
}

// TestBetaFilteredCentrality: the β filter applied at query time — the
// flexibility HIP provides that the pre-HIP estimators lacked (Section 1).
func TestBetaFilteredCentrality(t *testing.T) {
	g := graph.PreferentialAttachment(300, 2, 99)
	// β selects nodes with even ID.
	beta := func(n int32) float64 {
		if n%2 == 0 {
			return 1
		}
		return 0
	}
	const d = 3
	exact := 0.0
	for _, nd := range graph.NearestOrder(g, 7) {
		if nd.Dist <= d {
			exact += beta(nd.Node)
		}
	}
	const runs = 300
	acc := stats.NewErrAccum(exact)
	for run := 0; run < runs; run++ {
		set, err := BuildSet(g, Options{K: 8, Seed: uint64(run) + 900})
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(EstimateCentrality(set.Sketch(7), KernelThreshold(d), beta))
	}
	if bias := acc.Bias(); math.Abs(bias) > 0.06 {
		t.Errorf("filtered centrality bias = %+.3f (exact %g)", bias, exact)
	}
}

// TestWeightedADSUnbiased (Section 9): HIP over exponential ranks
// estimates weighted neighborhood cardinalities without bias.
func TestWeightedADSUnbiased(t *testing.T) {
	g := graph.GNP(200, 0.04, false, 111)
	beta := make([]float64, g.NumNodes())
	rng := rank.NewRNG(7)
	for i := range beta {
		beta[i] = 0.5 + 2*rng.Float64()
	}
	const d = 3
	exact := exactNeighborhoodWeight(g, 9, d, beta)
	const runs = 300
	acc := stats.NewErrAccum(exact)
	for run := 0; run < runs; run++ {
		set, err := BuildWeightedSet(g, 8, uint64(run)+3000, beta)
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(set.Sketch(9).(*WeightedADS).EstimateNeighborhoodWeight(d))
	}
	if bias := acc.Bias(); math.Abs(bias) > 0.05 {
		t.Errorf("weighted neighborhood bias = %+.3f (exact %g)", bias, exact)
	}
	if nrmse := acc.NRMSE(); nrmse > 2.5*stats.HIPCV(8) {
		t.Errorf("weighted NRMSE = %g, far above HIP bound %g", nrmse, stats.HIPCV(8))
	}
}

// TestWeightedADSFavorsHeavyNodes: heavier nodes appear more often.
func TestWeightedADSFavorsHeavyNodes(t *testing.T) {
	g := graph.Complete(60)
	beta := make([]float64, 60)
	for i := range beta {
		beta[i] = 0.1
	}
	beta[42] = 50 // one very heavy node
	counts := 0
	const runs = 100
	for run := 0; run < runs; run++ {
		set, err := BuildWeightedSet(g, 4, uint64(run)+12, beta)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range set.Sketch(0).(*WeightedADS).Entries() {
			if e.Node == 42 {
				counts++
			}
		}
	}
	if counts < runs*9/10 {
		t.Errorf("heavy node sampled in only %d/%d runs", counts, runs)
	}
}

// TestWeightedADSValidate: every entry of a weighted sketch carries a
// positive, finite node weight, and the sketch holds its owner first — so
// an empty one is refused.
func TestWeightedADSValidate(t *testing.T) {
	c := colsFromEntries([]Entry{{Node: 0, Dist: 0, Rank: 0.5}, {Node: 1, Dist: 1, Rank: 0.2}})
	for _, b := range []float64{2, 0, -1, math.NaN(), math.Inf(1)} {
		c.beta = []float64{1, b}
		err := (&WeightedADS{k: 2, node: 0, c: c}).Validate()
		if valid := b == 2; (err == nil) != valid {
			t.Errorf("entry weight %g: Validate = %v", b, err)
		}
	}
	if (&WeightedADS{k: 2, node: 0}).Validate() == nil {
		t.Error("empty weighted sketch validated")
	}
}

func TestBuildWeightedSetErrors(t *testing.T) {
	g := graph.Path(4)
	if _, err := BuildWeightedSet(g, 0, 1, []float64{1, 1, 1, 1}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := BuildWeightedSet(g, 2, 1, []float64{1, 1}); err == nil {
		t.Error("short beta accepted")
	}
	// A node weight must be positive and finite: NaN passes a "b <= 0"
	// test and +Inf gives a zero rank, so both are refused with 0 and -1,
	// under either rank scheme, naming the node.
	for _, b := range []float64{math.NaN(), math.Inf(1), 0, -1} {
		beta := []float64{1, 1, b, 1}
		for name, build := range map[string]func(*graph.Graph, int, uint64, []float64) (*Set, error){
			"exponential": BuildWeightedSet, "priority": BuildPriorityWeightedSet,
		} {
			set, err := build(g, 2, 1, beta)
			if set != nil || err == nil || !strings.Contains(err.Error(), "beta[2]") {
				t.Errorf("%s, beta[2] = %g: (%v, %v), want an error naming beta[2]", name, b, set, err)
			}
		}
		// A node range's slice names the global node ID.
		if err := CheckWeights(beta[1:], 5); err == nil || !strings.Contains(err.Error(), "beta[6]") {
			t.Errorf("CheckWeights from node 5, beta[6] = %g: %v, want an error naming beta[6]", b, err)
		}
	}
	if err := CheckWeights([]float64{0.5, 1, math.MaxFloat64}, 0); err != nil {
		t.Errorf("CheckWeights refused valid weights: %v", err)
	}
}

// TestQgHIPBeatsNaive (the up-to-(n/k)-fold claim): for a statistic
// concentrated on close nodes, HIP beats the "MinHash sketch of all
// reachable nodes" subset-sum estimator by a large factor.
func TestQgHIPBeatsNaive(t *testing.T) {
	const k, n, runs = 8, 2000, 300
	// g decays sharply: only the ~20 closest nodes matter.
	gfun := func(dist float64) float64 { return math.Exp(-dist / 5) }
	exact := 0.0
	for i := 0; i < n; i++ {
		exact += gfun(float64(i))
	}
	hipAcc := stats.NewErrAccum(exact)
	naiveAcc := stats.NewErrAccum(exact)
	for run := 0; run < runs; run++ {
		seed := uint64(run)*71 + 19
		a := streamADS(k, n, rank.NewSource(seed))
		hipAcc.Add(EstimateQ(a, func(_ int32, dist float64) float64 { return gfun(dist) }))

		// Naive: bottom-k MinHash of all n elements (with distances);
		// estimate = cardinality-estimate x mean g over the k samples.
		mh := a.MinHashEntriesWithin(math.Inf(1))
		sum := 0.0
		for _, e := range mh {
			sum += gfun(e.Dist)
		}
		naiveAcc.Add(sketch.BottomKEstimate(k, mh[k-1].Rank) * sum / float64(len(mh)))
	}
	ratio := naiveAcc.NRMSE() / hipAcc.NRMSE()
	if ratio < 3 {
		t.Errorf("naive/HIP NRMSE ratio = %g, expected a large factor for concentrated g", ratio)
	}
}

// TestPriorityWeightedADSUnbiased: the Section 9 Sequential Poisson
// alternative must also be unbiased for weighted neighborhood sizes.
func TestPriorityWeightedADSUnbiased(t *testing.T) {
	g := graph.GNP(200, 0.04, false, 112)
	beta := make([]float64, g.NumNodes())
	rng := rank.NewRNG(8)
	for i := range beta {
		beta[i] = 0.5 + 2*rng.Float64()
	}
	const d = 3
	exact := exactNeighborhoodWeight(g, 9, d, beta)
	const runs = 300
	acc := stats.NewErrAccum(exact)
	for run := 0; run < runs; run++ {
		set, err := BuildPriorityWeightedSet(g, 8, uint64(run)+7000, beta)
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(set.Sketch(9).(*WeightedADS).EstimateNeighborhoodWeight(d))
	}
	if bias := acc.Bias(); math.Abs(bias) > 0.05 {
		t.Errorf("priority weighted bias = %+.3f (exact %g)", bias, exact)
	}
}

func TestWeightSchemeString(t *testing.T) {
	if ExponentialWeights.String() != "exponential" || PriorityWeights.String() != "priority" {
		t.Error("scheme names")
	}
	if WeightScheme(9).String() != "WeightScheme(9)" {
		t.Error("unknown scheme formatting")
	}
}

// exactNeighborhoodWeight computes Σ_{j: d_vj <= d} β(j) exactly.
func exactNeighborhoodWeight(g *graph.Graph, v int32, d float64, beta []float64) float64 {
	sum := 0.0
	for _, nd := range graph.NearestOrder(g, v) {
		if nd.Dist > d {
			break
		}
		sum += beta[nd.Node]
	}
	return sum
}

// exactHarmonic returns Σ_{v != src} 1/d(src,v) by traversal.
func exactHarmonic(g *graph.Graph, src int32) float64 {
	sum := 0.0
	for v, d := range graph.Distances(g, src) {
		if int32(v) != src && d != graph.Infinity && d > 0 {
			sum += 1 / d
		}
	}
	return sum
}
