package adsketch_test

// Statistical conformance suite: machine-checkable accuracy contracts
// derived from the paper's Theorem 5.1, which bounds the coefficient of
// variation of every HIP estimate by 1/sqrt(2(k-1)) — for all three set
// kinds (uniform, weighted, approximate), because the HIP conditioning
// argument is flavor- and weighting-agnostic.
//
// For each (graph family × k × set kind) cell, the suite estimates
// neighborhood cardinalities for every node through the public
// Engine.Do protocol path (the exact bytes a production server would
// return), compares against exact BFS ground truth, and asserts that
// the empirical NRMSE — the sample analogue of the CV, averaged over
// all nodes — stays within CVTolerance times the theorem's bound.  All
// builds are deterministic in their seeds, so a pass is reproducible,
// and any estimator drift (a changed tie-break, a broken threshold, a
// biased weight) moves the NRMSE and fails the suite loudly.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"adsketch"
	"adsketch/internal/distbuild"
)

// CVTolerance is the accepted multiple of the Theorem 5.1 bound.  The
// bound is on the true CV; the empirical NRMSE over n correlated
// estimates (all sketches share one rank permutation) fluctuates around
// it, and 1.4 gives deterministic-seed headroom without masking real
// estimator regressions (which typically blow up NRMSE by far more).
const CVTolerance = 1.4

// hipCVBound is the Theorem 5.1 bound 1/sqrt(2(k-1)) (1/sqrt(2k-2)).
func hipCVBound(k int) float64 { return 1 / math.Sqrt(2*float64(k-1)) }

// conformanceGraph builds one deterministic graph of the named family.
func conformanceGraph(family string) *adsketch.Graph {
	switch family {
	case "path":
		return adsketch.Path(300)
	case "grid":
		return adsketch.Grid(18, 18)
	case "ba":
		return adsketch.PreferentialAttachment(300, 3, 11)
	case "er":
		return adsketch.GNP(300, 0.02, false, 13)
	}
	panic("unknown family " + family)
}

// bfsDistances returns the exact hop distances from src (-1 means
// unreachable).  The conformance graphs are unweighted, so BFS is the
// ground truth the sketches are judged against.
func bfsDistances(g *adsketch.Graph, src int32) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		nbrs, _ := g.Neighbors(u)
		for _, v := range nbrs {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// exactNeighborhoods computes, for every node, Σ β(j) over j with
// d(v, j) <= radius (β ≡ 1 for plain cardinalities); radius < 0 means
// unbounded (everything reachable).
func exactNeighborhoods(g *adsketch.Graph, radius float64, beta []float64) []float64 {
	n := g.NumNodes()
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		dist := bfsDistances(g, int32(v))
		sum := 0.0
		for j, d := range dist {
			if d < 0 {
				continue
			}
			if radius >= 0 && float64(d) > radius {
				continue
			}
			if beta != nil {
				sum += beta[j]
			} else {
				sum++
			}
		}
		out[v] = sum
	}
	return out
}

// nrmse is the empirical normalized RMS error over all nodes with
// non-zero ground truth — the sample analogue of the estimator's CV.
func nrmse(est, exact []float64) float64 {
	sum, n := 0.0, 0
	for i := range est {
		if exact[i] == 0 {
			continue
		}
		rel := (est[i] - exact[i]) / exact[i]
		sum += rel * rel
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// engineEstimates runs one neighborhood query over every node through
// the public protocol path (Engine.Do), radius < 0 meaning unbounded.
func engineEstimates(t *testing.T, eng *adsketch.Engine, radius float64, n int) []float64 {
	t.Helper()
	nodes := make([]int32, n)
	for i := range nodes {
		nodes[i] = int32(i)
	}
	q := &adsketch.NeighborhoodQuery{Radius: radius, Nodes: nodes}
	if radius < 0 {
		q.Radius, q.Unbounded = 0, true
	}
	resp, err := eng.Do(context.Background(), adsketch.Request{Neighborhood: q})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Scores) != n {
		t.Fatalf("%d scores for %d nodes", len(resp.Scores), n)
	}
	return resp.Scores
}

// conformanceBeta is the deterministic node weighting of the weighted
// cells (Section 9): small integer weights, so weighted cardinalities
// differ meaningfully from counts.
func conformanceBeta(n int) []float64 {
	beta := make([]float64, n)
	for i := range beta {
		beta[i] = 1 + float64(i%4)
	}
	return beta
}

// conformanceSet builds the set of one cell: the uniform and weighted
// kinds with Build, and the approximate one (ε = 0.1) with the one
// construction the serving binaries have for it, a two-worker distributed
// build.
func conformanceSet(t *testing.T, g *adsketch.Graph, kind string, k int, seed uint64, beta []float64) *adsketch.Set {
	t.Helper()
	var set *adsketch.Set
	var err error
	switch kind {
	case "uniform":
		set, err = adsketch.Build(g, adsketch.WithK(k), adsketch.WithSeed(seed))
	case "weighted":
		set, err = adsketch.Build(g, adsketch.WithK(k), adsketch.WithSeed(seed), adsketch.WithNodeWeights(beta))
	case "approx":
		set, err = distBuildSpec(t, g, distbuild.Spec{K: k, Seed: seed, Kind: distbuild.KindApprox, Eps: 0.1, Parts: 2})
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestConformanceHIPBound is the table: NRMSE <= CVTolerance × the
// Theorem 5.1 bound for every (family × k × kind × radius) cell.
func TestConformanceHIPBound(t *testing.T) {
	const buildSeed = 42
	families := []string{"path", "grid", "ba", "er"}
	ks := []int{8, 16, 64}
	// Bounded-radius cells exercise the HIP prefix estimates; unbounded
	// cells the full reachability estimate.  Approximate sketches carry
	// an ε distance slack, so only their unbounded estimates (where the
	// slack cannot move mass across the radius boundary) are pinned to
	// the bound.
	radii := map[string][]float64{
		"uniform":  {2, -1},
		"weighted": {2, -1},
		"approx":   {-1},
	}
	for _, family := range families {
		g := conformanceGraph(family)
		n := g.NumNodes()
		beta := conformanceBeta(n)
		exact := map[string]map[float64][]float64{}
		for kind, rs := range radii {
			exact[kind] = map[float64][]float64{}
			for _, r := range rs {
				if kind == "weighted" {
					exact[kind][r] = exactNeighborhoods(g, r, beta)
				} else {
					exact[kind][r] = exactNeighborhoods(g, r, nil)
				}
			}
		}
		for _, k := range ks {
			for kind, rs := range radii {
				t.Run(fmt.Sprintf("%s/k=%d/%s", family, k, kind), func(t *testing.T) {
					eng, err := adsketch.NewEngine(conformanceSet(t, g, kind, k, buildSeed, beta))
					if err != nil {
						t.Fatal(err)
					}
					bound := hipCVBound(k)
					for _, r := range rs {
						est := engineEstimates(t, eng, r, n)
						got := nrmse(est, exact[kind][r])
						if got > CVTolerance*bound {
							t.Errorf("radius %g: NRMSE %.4f exceeds %.2f × bound %.4f (k=%d)",
								r, got, CVTolerance, bound, k)
						} else {
							t.Logf("radius %g: NRMSE %.4f (bound %.4f, k=%d)", r, got, bound, k)
						}
					}
				})
			}
		}
	}
}

// TestConformanceExactRegime pins the exactness property the HIP
// estimator inherits from bottom-k sketches: while a neighborhood holds
// at most k nodes, the sketch contains all of it and the estimate is
// exact, not approximate.  (Path neighborhoods of radius 2 hold <= 5
// nodes, so k = 8 must reproduce them perfectly.)
func TestConformanceExactRegime(t *testing.T) {
	g := conformanceGraph("path")
	set, err := adsketch.Build(g, adsketch.WithK(8), adsketch.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := adsketch.NewEngine(set)
	if err != nil {
		t.Fatal(err)
	}
	est := engineEstimates(t, eng, 2, g.NumNodes())
	exact := exactNeighborhoods(g, 2, nil)
	for v := range est {
		if est[v] != exact[v] {
			t.Fatalf("node %d: estimate %v differs from exact %v in the sub-k regime", v, est[v], exact[v])
		}
	}
}

// TestConformanceCoordinatorPreservesBound re-runs one cell per set
// kind through a 4-partition coordinator: partitioning must not move a
// single estimate (stronger: it is byte-identical, see cluster_test.go),
// so the conformance bound holds for the scatter-gather tier too.
func TestConformanceCoordinatorPreservesBound(t *testing.T) {
	g := conformanceGraph("ba")
	n := g.NumNodes()
	beta := conformanceBeta(n)
	for _, kind := range []string{"uniform", "weighted", "approx"} {
		set := conformanceSet(t, g, kind, 16, 42, beta)
		eng, err := adsketch.NewEngine(set)
		if err != nil {
			t.Fatal(err)
		}
		coord, err := adsketch.NewPartitionedEngine(set, 4)
		if err != nil {
			t.Fatal(err)
		}
		nodes := make([]int32, n)
		for i := range nodes {
			nodes[i] = int32(i)
		}
		req := adsketch.Request{Neighborhood: &adsketch.NeighborhoodQuery{Unbounded: true, Nodes: nodes}}
		want, err := eng.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Scores {
			if got.Scores[i] != want.Scores[i] {
				t.Fatalf("%s node %d: coordinator %v, single %v", kind, i, got.Scores[i], want.Scores[i])
			}
		}
	}
}

// TestConformanceIncrementalParity extends the suite to incrementally
// maintained sets: streaming every edge of a conformance cell through an
// empty Ingestor must reproduce the full rebuild's estimates exactly
// (bit-for-bit Engine output on every node, bounded and unbounded), so
// every accuracy contract above transfers verbatim to ingest-frozen sets.
func TestConformanceIncrementalParity(t *testing.T) {
	const buildSeed = 42
	for _, family := range []string{"ba", "er"} {
		t.Run(family, func(t *testing.T) {
			g := conformanceGraph(family)
			n := g.NumNodes()
			set, err := adsketch.Build(g, adsketch.WithK(16), adsketch.WithSeed(buildSeed))
			if err != nil {
				t.Fatal(err)
			}
			ing, err := adsketch.NewEmptyIngestor(g.Directed(), 16, buildSeed)
			if err != nil {
				t.Fatal(err)
			}
			edges := graphEdges(g)
			if _, err := ing.InsertBatch(edges); err != nil {
				t.Fatal(err)
			}
			res, err := ing.Freeze()
			if err != nil {
				t.Fatal(err)
			}
			engFull, err := adsketch.NewEngine(set)
			if err != nil {
				t.Fatal(err)
			}
			engInc, err := adsketch.NewEngine(res.Set)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []float64{2, -1} {
				full := engineEstimates(t, engFull, r, n)
				inc := engineEstimates(t, engInc, r, n)
				for v := range full {
					if full[v] != inc[v] {
						t.Fatalf("radius %g node %d: incremental %v != rebuild %v", r, v, inc[v], full[v])
					}
				}
			}
		})
	}
}
