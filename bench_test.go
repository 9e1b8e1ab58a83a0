// Benchmark harness: one benchmark per experiment in DESIGN.md, each
// regenerating (a statistically thinned version of) the corresponding
// paper artifact and reporting its headline quantities as custom metrics.
// The full-resolution series (paper run counts) are produced by
// cmd/figures; these benches use reduced run counts so `go test -bench=.`
// finishes in minutes while still exhibiting every qualitative shape.
//
//	E1  BenchmarkFigure2*            Figure 2 panels
//	E2  BenchmarkFigure3*            Figure 3 panels
//	E3  BenchmarkADSSize             Lemma 2.2 sizes
//	E4  BenchmarkHIPvsBasicVariance  Theorem 5.1 factor-2
//	E5  BenchmarkHLLvsHIPConstants   Section 6 constants
//	E6  BenchmarkBaseBTradeoff       Section 5.6 (1+b)/2 factor
//	E8  BenchmarkSizeEstimator       Lemma 8.1
//	E9  BenchmarkMorrisCounter       Section 7
//	E10 BenchmarkQgHIPvsNaive        n/k-fold Q_g variance claim
//	E11 BenchmarkBuilders            Section 3 construction costs
//	E12 BenchmarkANF                 Appendix B.1 readouts
//
// (E7, the permutation-vs-HIP crossover, is part of the Figure 2 output.)
package adsketch_test

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"testing"

	"adsketch"
	"adsketch/internal/core"
	"adsketch/internal/graph"
	"adsketch/internal/rank"
	"adsketch/internal/simulate"
	"adsketch/internal/sketch"
	"adsketch/internal/stats"
	"adsketch/internal/stream"
	"adsketch/lab"
)

// E1: Figure 2.  Reports the plateau NRMSE of each estimator and the
// basic/HIP error ratio (paper: ~sqrt(2)).
func benchFigure2(b *testing.B, k, maxn, runs int) {
	var panel *stats.Panel
	for i := 0; i < b.N; i++ {
		panel = simulate.Figure2(simulate.Fig2Config{K: k, MaxN: maxn, Runs: runs, Seed: 42})
	}
	byName := map[string]*stats.Series{}
	for _, s := range panel.Series {
		byName[s.Name] = s
	}
	top := float64(maxn)
	basic := byName[simulate.SeriesBottomBasic].Point(top).NRMSE()
	hip := byName[simulate.SeriesBottomHIP].Point(top).NRMSE()
	b.ReportMetric(basic, "basic-NRMSE")
	b.ReportMetric(hip, "HIP-NRMSE")
	b.ReportMetric(basic/hip, "basic/HIP")
	b.ReportMetric(byName[simulate.SeriesPerm].Point(top).NRMSE(), "perm-NRMSE")
	b.ReportMetric(byName[simulate.SeriesKPartBasic].Point(top).NRMSE(), "kpart-NRMSE")
	b.ReportMetric(stats.BasicCV(k), "ref-basic-CV")
	b.ReportMetric(stats.HIPCV(k), "ref-HIP-CV")
}

func BenchmarkFigure2_K5(b *testing.B)  { benchFigure2(b, 5, 10000, 200) }
func BenchmarkFigure2_K10(b *testing.B) { benchFigure2(b, 10, 10000, 150) }
func BenchmarkFigure2_K50(b *testing.B) { benchFigure2(b, 50, 50000, 60) }

// E2: Figure 3.  Reports plateau NRMSE of HLL raw/corrected/HIP.
func benchFigure3(b *testing.B, k, maxn, runs int) {
	var panel *stats.Panel
	for i := 0; i < b.N; i++ {
		panel = simulate.Figure3(simulate.Fig3Config{K: k, MaxN: maxn, Runs: runs, Seed: 5})
	}
	byName := map[string]*stats.Series{}
	for _, s := range panel.Series {
		byName[s.Name] = s
	}
	top := float64(maxn)
	b.ReportMetric(byName[simulate.SeriesHLLRaw].Point(top).NRMSE(), "HLLraw-NRMSE")
	b.ReportMetric(byName[simulate.SeriesHLL].Point(top).NRMSE(), "HLL-NRMSE")
	b.ReportMetric(byName[simulate.SeriesHIP].Point(top).NRMSE(), "HIP-NRMSE")
	b.ReportMetric(stats.HIPBaseBCV(k, 2), "ref-HIP-analysis")
}

func BenchmarkFigure3_K16(b *testing.B) { benchFigure3(b, 16, 200000, 250) }
func BenchmarkFigure3_K32(b *testing.B) { benchFigure3(b, 32, 200000, 250) }
func BenchmarkFigure3_K64(b *testing.B) { benchFigure3(b, 64, 200000, 150) }

// E3: Lemma 2.2 expected ADS size.  Reports worst relative deviation.
func BenchmarkADSSize(b *testing.B) {
	var rows []simulate.SizeRow
	for i := 0; i < b.N; i++ {
		rows = simulate.SizeTable([]int{1, 5, 10, 50}, []int{1000, 10000}, 200, 3)
	}
	worst := 0.0
	for _, r := range rows {
		if rel := math.Abs(r.Measured-r.Expected) / r.Expected; rel > worst {
			worst = rel
		}
	}
	b.ReportMetric(worst, "worst-rel-dev")
}

// E4: Theorem 5.1 — HIP variance is half the basic estimator's.
func BenchmarkHIPvsBasicVariance(b *testing.B) {
	const k, n, runs = 10, 3000, 400
	var ratio float64
	for i := 0; i < b.N; i++ {
		hip := stats.NewErrAccum(n)
		basic := stats.NewErrAccum(n)
		for run := 0; run < runs; run++ {
			c := lab.NewBottomKDistinct(k, uint64(run)*40503+1)
			for id := int64(0); id < n; id++ {
				c.Add(id)
			}
			hip.Add(c.Estimate())
			basic.Add(c.BasicEstimate())
		}
		v1, v2 := basic.NRMSE(), hip.NRMSE()
		ratio = (v1 * v1) / (v2 * v2)
	}
	b.ReportMetric(ratio, "basic/HIP-variance")
}

// E5: Section 6 NRMSE constants.
func BenchmarkHLLvsHIPConstants(b *testing.B) {
	var rows []simulate.ConstantRow
	for i := 0; i < b.N; i++ {
		rows = simulate.HLLConstantsTable([]int{16, 32, 64}, 100000, 250, 13)
	}
	for _, r := range rows {
		switch r.K {
		case 16:
			b.ReportMetric(r.HIPConst, "HIP-const-k16")
			b.ReportMetric(r.HLLConst, "HLL-const-k16")
		case 64:
			b.ReportMetric(r.HIPConst, "HIP-const-k64")
			b.ReportMetric(r.HLLConst, "HLL-const-k64")
			b.ReportMetric(r.Ratio, "HLL/HIP-k64")
		}
	}
}

// E6: Section 5.6 base-b trade-off; reports NRMSE/analysis ratios.
func BenchmarkBaseBTradeoff(b *testing.B) {
	var rows []simulate.BaseBRow
	for i := 0; i < b.N; i++ {
		rows = simulate.BaseBTable([]int{16, 64}, []float64{0, math.Sqrt2, 2}, 20000, 200, 11)
	}
	for _, r := range rows {
		if r.K != 16 {
			continue
		}
		name := "full"
		if r.Base == 2 {
			name = "base2"
		} else if r.Base != 0 {
			name = "sqrt2"
		}
		b.ReportMetric(r.NRMSE/r.Analysis, "meas/analysis-"+name)
	}
}

// E8: Lemma 8.1 size-only estimator — bias and error vs HIP at n=1000.
func BenchmarkSizeEstimator(b *testing.B) {
	const k, n, runs = 10, 1000, 600
	var sizeAcc, hipAcc *stats.ErrAccum
	for i := 0; i < b.N; i++ {
		sizeAcc = stats.NewErrAccum(n)
		hipAcc = stats.NewErrAccum(n)
		for run := 0; run < runs; run++ {
			s := lab.NewFirstOccurrenceADS(k, uint64(run)*7919+5)
			for id := int64(0); id < n; id++ {
				s.Process(id, float64(id))
			}
			sizeAcc.Add(lab.SizeEstimate(k, s.Size()))
			hipAcc.Add(s.DistinctCount())
		}
	}
	b.ReportMetric(sizeAcc.Bias(), "size-est-bias")
	b.ReportMetric(sizeAcc.NRMSE(), "size-est-NRMSE")
	b.ReportMetric(hipAcc.NRMSE(), "HIP-NRMSE")
}

// E9: Section 7 Morris counters — bias and CV per base.
func BenchmarkMorrisCounter(b *testing.B) {
	const n, runs = 10000, 400
	bases := []float64{2, 1.5, 1.0625}
	names := []string{"b2", "b1.5", "b1.0625"}
	for i := 0; i < b.N; i++ {
		for j, base := range bases {
			acc := stats.NewErrAccum(n)
			for run := 0; run < runs; run++ {
				m := lab.NewMorris(base, uint64(run)*6700417+1)
				for x := 0; x < n; x++ {
					m.Increment()
				}
				acc.Add(m.Estimate())
			}
			if i == 0 {
				b.ReportMetric(acc.NRMSE(), "NRMSE-"+names[j])
				b.ReportMetric(math.Sqrt((base-1)/2), "ref-"+names[j])
			}
		}
	}
}

// E10: the up-to-(n/k)-fold Q_g variance claim for concentrated g.
func BenchmarkQgHIPvsNaive(b *testing.B) {
	const k, n, runs = 8, 2000, 300
	gfun := func(dist float64) float64 { return math.Exp(-dist / 5) }
	exact := 0.0
	for i := 0; i < n; i++ {
		exact += gfun(float64(i))
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		hipAcc := stats.NewErrAccum(exact)
		naiveAcc := stats.NewErrAccum(exact)
		for run := 0; run < runs; run++ {
			a := streamADS(b, k, n, rank.NewSource(uint64(run)*71+19))
			hipAcc.Add(core.EstimateQ(a, func(_ int32, d float64) float64 { return gfun(d) }))
			mh := a.MinHashEntriesWithin(math.Inf(1))
			sum := 0.0
			for _, e := range mh {
				sum += gfun(e.Dist)
			}
			naiveAcc.Add(sketch.BottomKEstimate(k, mh[k-1].Rank) * sum / float64(len(mh)))
		}
		r := naiveAcc.NRMSE() / hipAcc.NRMSE()
		ratio = r * r
	}
	b.ReportMetric(ratio, "naive/HIP-variance")
	b.ReportMetric(float64(n)/float64(k), "n/k")
}

// streamADS is the bottom-k ADS, owned by element 0, of the stream of
// elements 0..n-1, element i at distance i: each kept iff its rank is
// below the k-th smallest kept before it.
func streamADS(b *testing.B, k, n int, src rank.Source) *core.ADS {
	var kept []core.Entry
	var pool []float64 // the k smallest kept ranks, ascending
	for id := int64(0); id < int64(n); id++ {
		r := src.Rank(id)
		if len(pool) == k && r >= pool[k-1] {
			continue
		}
		kept = append(kept, core.Entry{Node: int32(id), Dist: float64(id), Rank: r})
		if pool = slices.Insert(pool, sort.SearchFloat64s(pool, r), r); len(pool) > k {
			pool = pool[:k]
		}
	}
	a, err := core.ADSFromEntries(0, k, kept)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// E11: Algorithm 1 on representative graphs (lab's BenchmarkBuildDP runs
// the Section 3 DP on the unweighted ones, internal/distbuild's benchmarks
// Algorithm 2).
func benchBuilder(b *testing.B, g *graph.Graph, k int) {
	b.ReportAllocs()
	var set adsketch.SketchSet
	for i := 0; i < b.N; i++ {
		var err error
		set, err = adsketch.Build(g, adsketch.WithK(k), adsketch.WithSeed(42))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(set.TotalEntries())/float64(g.NumNodes()), "entries/node")
	perEdge := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(g.NumArcs())
	b.ReportMetric(perEdge, "ns/arc")
}

func BenchmarkBuilders(b *testing.B) {
	graphs := map[string]*graph.Graph{
		"ba-5k":   graph.PreferentialAttachment(5000, 4, 7),
		"grid-70": graph.Grid(70, 70),
		"gnp-5k":  graph.GNP(5000, 0.002, false, 7),
		"wgnp-2k": graph.WithRandomWeights(graph.GNP(2000, 0.005, false, 8), 1, 4, 9),
	}
	for gname, g := range graphs {
		for _, k := range []int{4, 16} {
			b.Run(gname+"/PrunedDijkstra/k="+itoa(k), func(b *testing.B) {
				benchBuilder(b, g, k)
			})
		}
	}
}

// E12: Appendix B.1 neighborhood function readouts.
func BenchmarkANF(b *testing.B) {
	g := graph.WattsStrogatz(3000, 6, 0.05, 17)
	exact := lab.ExactNeighborhoodFunction(g)
	plateau := float64(exact[len(exact)-1])
	for _, mode := range []lab.ANFOptions{
		{K: 64, Seed: 4, Readout: lab.ANFBasic},
		{K: 64, Seed: 4, Readout: lab.ANFHIP},
	} {
		mode := mode
		b.Run(mode.Readout.String(), func(b *testing.B) {
			var res *lab.ANFResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = lab.NeighborhoodFunction(g, mode)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.NF[len(res.NF)-1]/plateau-1, "plateau-rel-err")
			b.ReportMetric(lab.EffectiveDiameter(res.NF, 0.9), "eff-diameter")
		})
	}
}

// Micro-benchmarks: per-element costs of the hot paths.

func BenchmarkStreamOfferPerElement(b *testing.B) {
	s := lab.NewFirstOccurrenceADS(16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(int64(i), float64(i))
	}
}

func BenchmarkHIPDistinctAdd(b *testing.B) {
	h := lab.NewHIPDistinct(64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(int64(i))
	}
}

func BenchmarkHLLAdd(b *testing.B) {
	s := lab.NewHyperLogLog(64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(int64(i))
	}
}

func BenchmarkMorrisIncrement(b *testing.B) {
	m := lab.NewMorris(1.0625, 1)
	for i := 0; i < b.N; i++ {
		m.Increment()
	}
}

func BenchmarkCentralityQuery(b *testing.B) {
	g := graph.PreferentialAttachment(5000, 4, 7)
	set, err := adsketch.Build(g, adsketch.WithK(16), adsketch.WithSeed(42))
	if err != nil {
		b.Fatal(err)
	}
	c := lab.NewCentrality(set)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Closeness(int32(i % 5000))
	}
}

// Engine serving path: repeated closeness queries hit the cached HIP
// indices instead of rescanning sketches (compare BenchmarkCentralityQuery).
func BenchmarkEngineClosenessCached(b *testing.B) {
	g := graph.PreferentialAttachment(5000, 4, 7)
	set, err := adsketch.Build(g, adsketch.WithK(16), adsketch.WithSeed(42))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := adsketch.NewEngine(set)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := eng.TopCloseness(ctx, 1); err != nil { // warm every index
		b.Fatal(err)
	}
	nodes := []int32{1, 17, 4999}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Closeness(ctx, nodes...); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

// Algorithm 1 against its worker count (Appendix B.4; core's runBatches):
// identical output at every count.  Measured on a 2-core VM (3 runs at
// -benchtime=10x): 77–86 ms at 1 worker, the loop on the calling
// goroutine, 58–88 ms at 2 and 73–86 ms at 4, which two cores cannot tell
// from 2; on BenchmarkBuildPipeline's graph 126–137 ms against 165–202 ms
// (quartiles of 10 runs).  The batches collect 13% more offers than they
// apply (stale thresholds prune less), and rank order, the column packing
// and the barriers — two a batch — stay on one core.  (The batch-of-8
// schedule this replaced measured 1.04–1.09× slower than sequential;
// CHANGES.md, PR 18.)
func BenchmarkParallelBuilder(b *testing.B) {
	g := graph.PreferentialAttachment(5000, 4, 7)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			setProcs(b, workers)
			for i := 0; i < b.N; i++ {
				if _, err := adsketch.Build(g, adsketch.WithK(16), adsketch.WithSeed(42)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildPipeline times Build on the dataset the repo benchmark
// (bench/) builds — PreferentialAttachment(10000,5,1), k=16, rank seed 42
// — so a `go test -bench` number can be read against its core.build_s and
// e2e.build_edges_per_s.  One row per construction the benchmark graph
// admits: the default (GOMAXPROCS workers), Section 9 node weights, and
// the default at GOMAXPROCS=1, on the calling goroutine alone.
// B/node is its sketch_bytes_per_node for the row's set.
func BenchmarkBuildPipeline(b *testing.B) {
	g := graph.PreferentialAttachment(10000, 5, 1)
	beta := make([]float64, g.NumNodes())
	for v := range beta {
		beta[v] = 0.5 + float64(v%3)
	}
	for _, c := range []struct {
		name  string
		opts  []adsketch.Option
		procs int // 0 = leave GOMAXPROCS as it is
	}{
		{"default", nil, 0},
		{"WithNodeWeights", []adsketch.Option{adsketch.WithNodeWeights(beta)}, 0},
		{"GOMAXPROCS1", nil, 1},
	} {
		opts := append([]adsketch.Option{adsketch.WithK(16), adsketch.WithSeed(42)}, c.opts...)
		b.Run(c.name, func(b *testing.B) {
			if c.procs > 0 {
				setProcs(b, c.procs)
			}
			b.ReportAllocs()
			var set adsketch.SketchSet
			for i := 0; i < b.N; i++ {
				var err error
				if set, err = adsketch.Build(g, opts...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(g.NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
			// What the repo benchmark calls sketch_bytes_per_node: the v3
			// file of the built set over its node count.
			b.StopTimer()
			size, err := adsketch.WriteSketchSetV3(io.Discard, set)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(size)/float64(g.NumNodes()), "B/node")
		})
	}
}

// HIPIndex accelerates repeated neighborhood queries.
func BenchmarkHIPIndexQuery(b *testing.B) {
	g := graph.PreferentialAttachment(2000, 4, 7)
	set, err := adsketch.Build(g, adsketch.WithK(16), adsketch.WithSeed(42))
	if err != nil {
		b.Fatal(err)
	}
	idx := adsketch.NewHIPIndex(set.SketchOf(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Neighborhood(float64(i % 7))
	}
}

// Distinct counters on a heavy-tailed (Zipf) stream: throughput per event.
func BenchmarkDistinctCountersZipf(b *testing.B) {
	counters := map[string]lab.DistinctCounter{
		"hip-hll":  lab.NewHIPDistinct(64, 5),
		"bottom-k": lab.NewBottomKDistinct(64, 5),
	}
	for name, c := range counters {
		c := c
		b.Run(name, func(b *testing.B) {
			z := stream.NewZipf(1000000, 1.1, 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Add(z.Next())
			}
		})
	}
}
