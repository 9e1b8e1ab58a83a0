package lab

import (
	"math"
	"testing"

	"adsketch/internal/graph"
	"adsketch/internal/stats"
)

func TestComputeErrors(t *testing.T) {
	g := graph.Path(5)
	if _, err := NeighborhoodFunction(g, ANFOptions{K: 1, Seed: 1}); err == nil {
		t.Error("K=1 accepted")
	}
	wg := graph.WithRandomWeights(g, 1, 2, 1)
	if _, err := NeighborhoodFunction(wg, ANFOptions{K: 16, Seed: 1}); err == nil {
		t.Error("weighted graph accepted")
	}
}

func TestReadoutString(t *testing.T) {
	if ANFBasic.String() != "basic" || ANFHIP.String() != "HIP" || Readout(7).String() != "Readout(7)" {
		t.Error("Readout names")
	}
}

func TestRoundsEqualDiameter(t *testing.T) {
	g := graph.Path(9) // diameter 8
	res, err := NeighborhoodFunction(g, ANFOptions{K: 16, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 8 {
		t.Errorf("rounds = %d, want 8 (path diameter)", res.Rounds)
	}
	if len(res.NF) != 9 {
		t.Errorf("NF has %d points, want 9", len(res.NF))
	}
	// NF must be non-decreasing.
	for i := 1; i < len(res.NF); i++ {
		if res.NF[i] < res.NF[i-1] {
			t.Fatal("NF decreasing")
		}
	}
}

func TestMaxRoundsCap(t *testing.T) {
	g := graph.Path(50)
	res, err := NeighborhoodFunction(g, ANFOptions{K: 8, Seed: 1, MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 3 {
		t.Errorf("rounds = %d exceeded cap", res.Rounds)
	}
}

func TestNeighborhoodFunctionAccuracy(t *testing.T) {
	// Both readouts should track the exact neighborhood function on a
	// moderate-expansion graph (per-round ball growth below ~k, where the
	// register-merge batching loses few HIP events).
	g := graph.Grid(18, 18)
	nf := ExactNeighborhoodFunction(g)
	const runs = 40
	for _, mode := range []Readout{ANFBasic, ANFHIP} {
		accs := make([]*stats.ErrAccum, len(nf))
		for i := range nf {
			accs[i] = stats.NewErrAccum(float64(nf[i]))
		}
		for run := 0; run < runs; run++ {
			res, err := NeighborhoodFunction(g, ANFOptions{K: 64, Seed: uint64(run)*37 + 5, Readout: mode})
			if err != nil {
				t.Fatal(err)
			}
			for i := range nf {
				j := i
				if j >= len(res.NF) {
					j = len(res.NF) - 1
				}
				accs[i].Add(res.NF[j])
			}
		}
		for i := range nf {
			if i == 0 {
				continue // t=0 is exact-ish for HIP, skewed for basic
			}
			if rel := math.Abs(accs[i].Bias()); rel > 0.12 {
				t.Errorf("%v readout: |bias| at t=%d is %.3f (exact %d)", mode, i, rel, nf[i])
			}
		}
	}
}

func TestHIPReadoutSmootherThanBasic(t *testing.T) {
	// The HIP readout should have lower error at the plateau (Appendix
	// B.1's motivation for retrofitting HIP into ANF/HyperANF) on graphs
	// with moderate per-round expansion.
	g := graph.WattsStrogatz(500, 6, 0.05, 9)
	nf := ExactNeighborhoodFunction(g)
	plateau := float64(nf[len(nf)-1])
	const runs = 60
	basicAcc := stats.NewErrAccum(plateau)
	hipAcc := stats.NewErrAccum(plateau)
	for run := 0; run < runs; run++ {
		seed := uint64(run)*101 + 3
		rb, err := NeighborhoodFunction(g, ANFOptions{K: 32, Seed: seed, Readout: ANFBasic})
		if err != nil {
			t.Fatal(err)
		}
		rh, err := NeighborhoodFunction(g, ANFOptions{K: 32, Seed: seed, Readout: ANFHIP})
		if err != nil {
			t.Fatal(err)
		}
		basicAcc.Add(rb.NF[len(rb.NF)-1])
		hipAcc.Add(rh.NF[len(rh.NF)-1])
	}
	if hipAcc.NRMSE() >= basicAcc.NRMSE() {
		t.Errorf("HIP plateau NRMSE %g not below basic %g", hipAcc.NRMSE(), basicAcc.NRMSE())
	}
}

func TestHIPReadoutUndercountsOnExplosiveExpansion(t *testing.T) {
	// Documented limitation: on a low-diameter hub graph the ball grows by
	// far more than k per round, register merges shadow many elements, and
	// the DP HIP readout is biased DOWN (never up).  The streaming HIP
	// counter does not have this problem; see package hll.
	g := graph.PreferentialAttachment(500, 3, 5)
	nf := ExactNeighborhoodFunction(g)
	plateau := float64(nf[len(nf)-1])
	const runs = 30
	acc := stats.NewErrAccum(plateau)
	for run := 0; run < runs; run++ {
		res, err := NeighborhoodFunction(g, ANFOptions{K: 64, Seed: uint64(run)*37 + 5, Readout: ANFHIP})
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(res.NF[len(res.NF)-1])
	}
	bias := acc.Bias()
	if bias > 0.05 {
		t.Errorf("expected downward bias, got %+.3f", bias)
	}
	if bias < -0.6 {
		t.Errorf("undercount %+.3f implausibly severe", bias)
	}
}

func TestKeepBalls(t *testing.T) {
	g := graph.Cycle(20)
	res, err := NeighborhoodFunction(g, ANFOptions{K: 16, Seed: 2, Readout: ANFHIP, KeepBalls: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Balls) != len(res.NF) {
		t.Fatalf("balls %d vs NF %d", len(res.Balls), len(res.NF))
	}
	// Ball at t=0 is exactly 1 for the HIP readout.
	for v, b := range res.Balls[0] {
		if b != 1 {
			t.Errorf("ball_0(%d) = %g, want 1", v, b)
		}
	}
	// Balls are non-decreasing in t.
	for tt := 1; tt < len(res.Balls); tt++ {
		for v := range res.Balls[tt] {
			if res.Balls[tt][v] < res.Balls[tt-1][v]-1e-9 {
				t.Fatal("ball estimates decreasing")
			}
		}
	}
}

func TestEffectiveDiameterFromEstimate(t *testing.T) {
	g := graph.Grid(14, 14)
	exact := EffectiveDiameter(floatCounts(ExactNeighborhoodFunction(g)), 0.9)
	res, err := NeighborhoodFunction(g, ANFOptions{K: 64, Seed: 6, Readout: ANFHIP})
	if err != nil {
		t.Fatal(err)
	}
	got := EffectiveDiameter(res.NF, 0.9)
	if math.Abs(got-exact) > 2 {
		t.Errorf("effective diameter %g, exact %g", got, exact)
	}
	if EffectiveDiameter(nil, 0.9) != 0 {
		t.Error("empty NF diameter should be 0")
	}
}

func TestDisconnectedGraph(t *testing.T) {
	b := graph.NewBuilder(6, false)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Build()
	res, err := NeighborhoodFunction(g, ANFOptions{K: 16, Seed: 1, Readout: ANFHIP})
	if err != nil {
		t.Fatal(err)
	}
	// Plateau: pairs = 2 components of 2 (4 pairs each... ordered pairs
	// within each component: 2 comps x 4 = 8) + 2 singletons = 10.
	plateau := res.NF[len(res.NF)-1]
	if math.Abs(plateau-10) > 4 {
		t.Errorf("plateau %g, want ~10", plateau)
	}
}

func TestHarmonicFromBalls(t *testing.T) {
	g := graph.Grid(12, 12)
	res, err := NeighborhoodFunction(g, ANFOptions{K: 64, Seed: 8, Readout: ANFHIP, KeepBalls: true})
	if err != nil {
		t.Fatal(err)
	}
	est := HarmonicFromBalls(res)
	if len(est) != g.NumNodes() {
		t.Fatalf("got %d estimates", len(est))
	}
	// Compare against exact harmonic centralities: strong correlation and
	// small aggregate error.
	var exactSum, estSum float64
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		exactSum += ExactHarmonic(g, v)
		estSum += est[v]
	}
	if rel := math.Abs(estSum-exactSum) / exactSum; rel > 0.1 {
		t.Errorf("aggregate harmonic rel err %.3f", rel)
	}
	// The grid center must outrank the corner.
	center := 6*12 + 6
	if est[center] <= est[0] {
		t.Errorf("center %g not above corner %g", est[center], est[0])
	}
	// Without balls, nil.
	res2, _ := NeighborhoodFunction(g, ANFOptions{K: 16, Seed: 8})
	if HarmonicFromBalls(res2) != nil {
		t.Error("expected nil without KeepBalls")
	}
}

// floatCounts converts exact pair counts, all below 2⁵³, to float64
// exactly.
func floatCounts(nf []int64) []float64 {
	out := make([]float64, len(nf))
	for t, c := range nf {
		out[t] = float64(c)
	}
	return out
}
