package lab

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"adsketch"
	"adsketch/internal/core"
	"adsketch/internal/rank"
	"adsketch/internal/stats"
)

// streamKMins offers elements 0..n-1 in order, element i at distance i, to
// a k-mins ADS owned by element 0: the sketch of a stream of distinct
// elements.
func streamKMins(k, n int, src rank.Source) *KMinsADS {
	a := NewKMinsADS(0, k)
	for i := int64(0); i < int64(n); i++ {
		for h := 0; h < k; h++ {
			a.OfferAt(h, core.Entry{Node: int32(i), Dist: float64(i), Rank: rankAt(src, h, i)})
		}
	}
	return a
}

// streamKPartition is streamKMins for a k-partition ADS.
func streamKPartition(k, n int, src rank.Source) *KPartitionADS {
	a := NewKPartitionADS(0, k)
	for i := int64(0); i < int64(n); i++ {
		a.OfferAt(bucket(src, i, k), core.Entry{Node: int32(i), Dist: float64(i), Rank: src.Rank(i)})
	}
	return a
}

// streamBottomK is streamKMins for a bottom-k ADS.
func streamBottomK(k, n int, src rank.Source) *core.ADS {
	var stream []core.Entry
	for i := int64(0); i < int64(n); i++ {
		stream = append(stream, core.Entry{Node: int32(i), Dist: float64(i), Rank: src.Rank(i)})
	}
	return offeredBottomK(k, stream)
}

// offeredBottomK offers the stream of entries, in canonical order, to a
// bottom-k ADS owned by the first: an entry is kept iff its rank is below
// the k-th smallest kept before it.
func offeredBottomK(k int, stream []core.Entry) *core.ADS {
	var kept []core.Entry
	var pool []float64
	for _, e := range stream {
		if len(pool) < k || e.Rank < pool[k-1] {
			kept = append(kept, e)
			pool = keepSmallest(pool, e.Rank, k)
		}
	}
	a, err := core.ADSFromEntries(stream[0].Node, k, kept)
	if err != nil {
		panic(err)
	}
	return a
}

func TestFlavorAccessors(t *testing.T) {
	m := NewKMinsADS(2, 5)
	if m.K() != 5 || m.Node() != 2 || m.Size() != 0 {
		t.Error("KMins accessors wrong")
	}
	p := NewKPartitionADS(1, 6)
	if p.K() != 6 || p.Node() != 1 || p.Size() != 0 {
		t.Error("KPartition accessors wrong")
	}
	for name, fn := range map[string]func(){
		"KMins":      func() { NewKMinsADS(0, 0) },
		"KPartition": func() { NewKPartitionADS(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with bad k did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestKMinsK1EquivalentToBottom1(t *testing.T) {
	// For k=1 all three flavors coincide (Section 2); check k-mins vs
	// bottom-k HIP estimates on the same stream.
	src := rank.NewSource(77)
	km := NewKMinsADS(0, 1)
	for i := int64(0); i < 300; i++ {
		km.OfferAt(0, core.Entry{Node: int32(i), Dist: float64(i), Rank: src.Rank(i)})
	}
	a := core.EstimateNeighborhoodHIP(km, 299)
	b := core.EstimateNeighborhoodHIP(streamBottomK(1, 300, src), 299)
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("k=1 flavors disagree: k-mins %g, bottom-k %g", a, b)
	}
}

// TestHIPUnbiasedAllFlavors checks E[HIP estimate] = n for each flavor.
func TestHIPUnbiasedAllFlavors(t *testing.T) {
	const k, n, runs = 8, 600, 400
	for name, build := range map[string]func(src rank.Source) core.Sketch{
		"bottom-k":    func(src rank.Source) core.Sketch { return streamBottomK(k, n, src) },
		"k-mins":      func(src rank.Source) core.Sketch { return streamKMins(k, n, src) },
		"k-partition": func(src rank.Source) core.Sketch { return streamKPartition(k, n, src) },
	} {
		acc := stats.NewErrAccum(n)
		for run := 0; run < runs; run++ {
			acc.Add(core.EstimateNeighborhoodHIP(build(rank.NewSource(uint64(run)*1315423911+7)), n))
		}
		if bias := acc.Bias(); math.Abs(bias) > 0.03 {
			t.Errorf("%s HIP bias = %+.3f, want ~0", name, bias)
		}
	}
}

// TestHIPBeatsBasicOtherFlavors: on k-mins and k-partition sketches too,
// HIP has a smaller error than the basic estimator over the MinHash sketch
// the ADS holds of the neighborhood (Section 5 against Section 4).
func TestHIPBeatsBasicOtherFlavors(t *testing.T) {
	const k, n, runs = 8, 1000, 300
	for name, build := range map[string]func(src rank.Source) core.Sketch{
		"k-mins":      func(src rank.Source) core.Sketch { return streamKMins(k, n, src) },
		"k-partition": func(src rank.Source) core.Sketch { return streamKPartition(k, n, src) },
	} {
		hip, basic := stats.NewErrAccum(n), stats.NewErrAccum(n)
		for run := 0; run < runs; run++ {
			s := build(rank.NewSource(uint64(run)*40503 + 1))
			hip.Add(core.EstimateNeighborhoodHIP(s, n))
			basic.Add(s.EstimateNeighborhood(n))
		}
		if hip.NRMSE() >= basic.NRMSE() {
			t.Errorf("%s: HIP NRMSE %g, basic %g: want HIP below", name, hip.NRMSE(), basic.NRMSE())
		}
	}
}

// TestADSMatchesDistinctCounters: the ADS of a stream of distinct
// elements holds, at every prefix, the counter of that prefix — its HIP
// estimate is the counter's HIP register and its basic estimate the
// counter's basic one, bit for bit.
func TestADSMatchesDistinctCounters(t *testing.T) {
	const k, n, seed = 8, 400, 5
	src := rank.NewSource(seed)
	km, kp := streamKMins(k, n, src), streamKPartition(k, n, src)
	kmc, kpc := NewKMinsDistinct(k, seed), NewKPartitionDistinct(k, seed)
	for i := int64(0); i < n; i++ {
		kmc.Add(i)
		kpc.Add(i)
		d := float64(i)
		for _, c := range []struct {
			name       string
			ads        core.Sketch
			hip, basic float64
		}{
			{"k-mins", km, kmc.Estimate(), kmc.BasicEstimate()},
			{"k-partition", kp, kpc.Estimate(), kpc.BasicEstimate()},
		} {
			if got := core.EstimateNeighborhoodHIP(c.ads, d); got != c.hip {
				t.Fatalf("%s, prefix %d: ADS HIP %g, counter %g", c.name, i+1, got, c.hip)
			}
			if got := c.ads.EstimateNeighborhood(d); got != c.basic {
				t.Fatalf("%s, prefix %d: ADS basic %g, counter %g", c.name, i+1, got, c.basic)
			}
		}
	}
}

// TestKMinsHIPAgainstBruteProbability cross-checks equation (7) against a
// direct computation of the running per-permutation minima.
func TestKMinsHIPAgainstBruteProbability(t *testing.T) {
	const k, n = 4, 200
	src := rank.NewSource(3)
	ws := streamKMins(k, n, src).HIPEntries()
	// Recompute tau for each sampled node directly from the definition.
	mins := ones(k)
	wi := 0
	for i := int64(0); i < n; i++ {
		inSketch := false
		for h := 0; h < k; h++ {
			if rankAt(src, h, i) < mins[h] {
				inSketch = true
			}
		}
		if inSketch {
			prod := 1.0
			for _, m := range mins {
				prod *= 1 - m
			}
			tau := 1 - prod
			if wi >= len(ws) || ws[wi].Node != int32(i) {
				t.Fatalf("HIP entry %d: expected node %d, got %+v", wi, i, ws[wi])
			}
			if math.Abs(ws[wi].Weight-1/tau) > 1e-9 {
				t.Fatalf("node %d: weight %g, want %g", i, ws[wi].Weight, 1/tau)
			}
			wi++
		}
		for h := 0; h < k; h++ {
			if r := rankAt(src, h, i); r < mins[h] {
				mins[h] = r
			}
		}
	}
	if wi != len(ws) {
		t.Fatalf("HIP produced %d entries, definition gives %d", len(ws), wi)
	}
}

// TestKPartitionHIPAgainstBruteProbability cross-checks equation (8).
func TestKPartitionHIPAgainstBruteProbability(t *testing.T) {
	const k, n = 4, 200
	src := rank.NewSource(4)
	ws := streamKPartition(k, n, src).HIPEntries()
	mins := ones(k)
	wi := 0
	for i := int64(0); i < n; i++ {
		b := bucket(src, i, k)
		if src.Rank(i) < mins[b] {
			sum := 0.0
			for _, m := range mins {
				sum += m
			}
			tau := sum / k
			if ws[wi].Node != int32(i) {
				t.Fatalf("entry %d: node %d, want %d", wi, ws[wi].Node, i)
			}
			if math.Abs(ws[wi].Weight-1/tau) > 1e-9 {
				t.Fatalf("node %d: weight %g, want %g", i, ws[wi].Weight, 1/tau)
			}
			wi++
			mins[b] = src.Rank(i)
		}
	}
	if wi != len(ws) {
		t.Fatalf("HIP produced %d entries, definition gives %d", len(ws), wi)
	}
}

// recordedDigests are the SHA-256 digests of every k-mins and k-partition
// ADS the last release to build them in the serving library
// (adsketch.Build with WithFlavor) built, at seed 42, of two graphs: the
// entries of every node's every permutation or bucket, in order, as the
// float64 bits of (node, distance, rank); and every node's HIP entries as
// (node, distance, weight) followed by its basic estimate of n_2.  The
// k=4 digests of "ranks" are also what testdata/golden_ranks.json held for
// the kmins and kpartition sets.
var recordedDigests = []struct {
	graph        string
	k            int
	flavor       string
	baseB        float64
	entries      string
	hip          string
	totalEntries int
}{
	{"ranks", 4, "k-mins", 0, "9522665337e28cab7c2f24b094f89cf06a7c8405b488cc6856982e88fd6385e0", "ac24ceba990d5ae34bbdc4a692c655a9d2fa91129efa4afe28bb9825ef43c45b", 1929},
	{"ranks", 4, "k-mins", 2, "5578fd3a31a777e8e12f32becf8d75147ab77e18f864c8c303e899f9f275be4e", "ee32673f08547df4dacac9c97a40969c21583be55adc054c908a6067280c05a8", 1302},
	{"ranks", 4, "k-partition", 0, "2952dbea8e7e16485d2bbdd52055c49d2923b798eb0f6a506f502b4eda9157f5", "0e404dc7ddd32455727ed627579a08851934ff69f4c892b9c7deeeb920c41ff4", 1315},
	{"ranks", 4, "k-partition", 2, "56086c0887098753f5284d1246d4c612d44070fb5fd62f6e18d00e777deb0c7a", "b660e3ea9b6a72daac59f25234cf303765404864c785b801faffd703713df2e5", 839},
	{"pa2000", 8, "k-mins", 0, "3f70fb20e94def367dcdff31b9596cf77ce41caf7e2f669046de966d5d7d6dc6", "f2b1212b4e5f1403359847d27405010765d3616959eb9345d42cedf59e299109", 131285},
	{"pa2000", 8, "k-mins", 2, "2f9cb8f63ba2feae9ea94af0ea1fe1c23159e49a11ce11791f226286e9db03bf", "4c1819b1b573268032570cca1ab7672a0bcca74fefe593b42cbf5c58bfc35ed7", 101645},
	{"pa2000", 8, "k-partition", 0, "a7cd137fc0cde5da602170579b5d10d13c229985a2a3ce432476debd7bb1bf9d", "92a7954b720502f8de0d16c0edc7cbb50a9f0a57d91a8c098ed5d04098f676d2", 100377},
	{"pa2000", 8, "k-partition", 2, "8550bb9f9937a26c9820f3a9ddc414e817e281b1b667b68a653b76cbef658154", "6a93a86e3c9f968b2ad464bd92d7f926e9f09baf10e12b22d2b532dd5abdfb47", 73652},
}

// TestRebuiltMatchRecordedDigests: BuildKMins and BuildKPartition rebuild,
// entry for entry and HIP weight for HIP weight, the sketches the serving
// library built while it had the two flavors (recordedDigests), and every
// one of them is valid.
func TestRebuiltMatchRecordedDigests(t *testing.T) {
	graphs := map[string]*adsketch.Graph{
		"ranks":  adsketch.WithRandomWeights(adsketch.PreferentialAttachment(90, 3, 9), 0.5, 3, 5),
		"pa2000": adsketch.PreferentialAttachment(2000, 3, 1),
	}
	for _, rec := range recordedDigests {
		label := fmt.Sprintf("%s k=%d %s b=%g", rec.graph, rec.k, rec.flavor, rec.baseB)
		g := graphs[rec.graph]
		var sketches []core.Sketch
		var lists func(v, i int) []core.Entry
		switch rec.flavor {
		case "k-mins":
			built, err := BuildKMins(g, rec.k, 42, rec.baseB)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range built {
				if err := a.Validate(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sketches = append(sketches, a)
			}
			lists = func(v, h int) []core.Entry { return built[v].Perm(h) }
		case "k-partition":
			built, err := BuildKPartition(g, rec.k, 42, rec.baseB)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range built {
				if err := a.Validate(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sketches = append(sketches, a)
			}
			lists = func(v, b int) []core.Entry { return built[v].Bucket(b) }
		}
		entries, hip := sha256.New(), sha256.New()
		put := func(h hash.Hash, vals ...float64) {
			for _, x := range vals {
				binary.Write(h, binary.LittleEndian, math.Float64bits(x))
			}
		}
		total := 0
		for v, s := range sketches {
			for i := 0; i < rec.k; i++ {
				for _, e := range lists(v, i) {
					put(entries, float64(e.Node), e.Dist, e.Rank)
				}
			}
			for _, e := range s.HIPEntries() {
				put(hip, float64(e.Node), e.Dist, e.Weight)
			}
			put(hip, s.EstimateNeighborhood(2))
			total += s.Size()
		}
		if total != rec.totalEntries {
			t.Errorf("%s: %d entries, recorded %d", label, total, rec.totalEntries)
		}
		if got := hex.EncodeToString(entries.Sum(nil)); got != rec.entries {
			t.Errorf("%s: entries hash to %s, recorded %s", label, got, rec.entries)
		}
		if got := hex.EncodeToString(hip.Sum(nil)); got != rec.hip {
			t.Errorf("%s: HIP entries hash to %s, recorded %s", label, got, rec.hip)
		}
	}
}
