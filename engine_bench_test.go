package adsketch_test

// Serving-path benchmarks: the Engine hot paths the wire protocol rides
// on.  CI runs every benchmark once (-benchtime 1x) as a smoke; the
// repository benchmark (bench/, BENCHMARK.json) is what measures.

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"adsketch"
)

var benchEngineOnce struct {
	sync.Once
	set adsketch.SketchSet
	eng *adsketch.Engine
}

func benchEngine(b *testing.B) (adsketch.SketchSet, *adsketch.Engine) {
	b.Helper()
	benchEngineOnce.Do(func() {
		g := adsketch.PreferentialAttachment(20000, 5, 1)
		set, err := adsketch.Build(g, adsketch.WithK(16), adsketch.WithSeed(42))
		if err != nil {
			b.Fatal(err)
		}
		eng, err := adsketch.NewEngine(set)
		if err != nil {
			b.Fatal(err)
		}
		benchEngineOnce.set, benchEngineOnce.eng = set, eng
	})
	return benchEngineOnce.set, benchEngineOnce.eng
}

// BenchmarkEngineClosenessBatch: a 1000-node closeness batch through the
// protocol dispatch (cold cache on the first iteration, warm after).
func BenchmarkEngineClosenessBatch(b *testing.B) {
	set, eng := benchEngine(b)
	nodes := make([]int32, 1000)
	for i := range nodes {
		nodes[i] = int32(i * (set.NumNodes() / len(nodes)))
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Closeness(ctx, nodes...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineTopCloseness: full-set scoring plus bounded-heap top-10
// selection (the partial-selection satellite's target path).
func BenchmarkEngineTopCloseness(b *testing.B) {
	_, eng := benchEngine(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.TopCloseness(ctx, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineDoJSON: the full wire cost of one request — JSON decode,
// dispatch, evaluate, JSON encode — as adsserver pays it.
func BenchmarkEngineDoJSON(b *testing.B) {
	_, eng := benchEngine(b)
	payload, err := json.Marshal(adsketch.Request{
		Neighborhood: &adsketch.NeighborhoodQuery{Radius: 3, Nodes: []int32{0, 17, 123, 999, 7777}},
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req adsketch.Request
		if err := json.Unmarshal(payload, &req); err != nil {
			b.Fatal(err)
		}
		resp, err := eng.Do(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := json.Marshal(resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSketchSetCodec: write the whole set as a v3 file and read it
// back through the validating stream reader — the `adstool build -save`,
// `adstool query -sketches` cycle.
func BenchmarkSketchSetCodec(b *testing.B) {
	set, _ := benchEngine(b)
	var buf bytes.Buffer
	if _, err := set.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := set.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := adsketch.ReadSketchSet(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
