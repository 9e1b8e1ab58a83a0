package adsketch_test

// Serving-startup and index-build benchmarks: how fast a prebuilt sketch
// set gets from bytes on disk to answering queries, and what the steady
// state costs.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"adsketch"
)

// loadBenchSet builds the deterministic set every load benchmark reads:
// large enough that decode cost dominates setup noise, small enough for
// CI's one-iteration smoke.
func loadBenchSet(b *testing.B) adsketch.SketchSet {
	b.Helper()
	g := adsketch.PreferentialAttachment(5000, 5, 1)
	set, err := adsketch.Build(g, adsketch.WithK(16), adsketch.WithSeed(42))
	if err != nil {
		b.Fatal(err)
	}
	return set
}

// BenchmarkSketchSetLoad measures the three ways a process gets a sketch
// file into memory: the validating stream read (the whole file read, then
// every node's sketch checked — what adstool and adsload do), the trusted
// open (one read, O(1) allocations), and the mmap open (no read at all
// until pages fault).  The first beside the second is what validation
// costs.
func BenchmarkSketchSetLoad(b *testing.B) {
	set := loadBenchSet(b)
	var v3 bytes.Buffer
	if _, err := set.WriteTo(&v3); err != nil {
		b.Fatal(err)
	}

	b.Run("stream-validate", func(b *testing.B) {
		b.SetBytes(int64(v3.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := adsketch.ReadSketchSet(bytes.NewReader(v3.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})

	v3path := benchFilePath(b, "set.v3.ads", v3.Bytes())

	b.Run("v3-open", func(b *testing.B) {
		b.SetBytes(int64(v3.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sf, err := adsketch.OpenSketchFile(v3path)
			if err != nil {
				b.Fatal(err)
			}
			if sf.Set().NumNodes() == 0 {
				b.Fatal("empty set")
			}
		}
	})

	b.Run("v3-mmap", func(b *testing.B) {
		b.SetBytes(int64(v3.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sf, err := adsketch.MmapSketchFile(v3path)
			if err != nil {
				b.Fatal(err)
			}
			if sf.Set().NumNodes() == 0 {
				b.Fatal("empty set")
			}
			sf.Close()
		}
	})
}

// BenchmarkHIPIndexBuild measures building the HIP query index for every
// node of the set — what serving every node once costs.  Allocations are
// reported because the pre-columnar implementation append-grew four
// slices per node (~19 allocs/node); the standalone builder now
// preallocates exactly, and a frame's index views the frame's columns and
// allocates its weights and sums as one slice.
func BenchmarkHIPIndexBuild(b *testing.B) {
	set := loadBenchSet(b)
	n := set.NumNodes()

	b.Run("standalone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for v := 0; v < n; v++ {
				_ = adsketch.NewHIPIndex(set.SketchOf(int32(v)))
			}
		}
	})

	// The serving path: the index Engine's cache builds on a node's first
	// query, every node once, on GOMAXPROCS goroutines of a node range each.
	var v3 bytes.Buffer
	if _, err := set.WriteTo(&v3); err != nil {
		b.Fatal(err)
	}
	b.Run("frame", func(b *testing.B) {
		b.ReportAllocs()
		procs := runtime.GOMAXPROCS(0)
		var held atomic.Int64
		for i := 0; i < b.N; i++ {
			held.Store(0)
			var wg sync.WaitGroup
			for w := 0; w < procs; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sum := int64(0)
					for v := w * n / procs; v < (w+1)*n/procs; v++ {
						sum += set.Index(int32(v)).Bytes()
					}
					held.Add(sum)
				}()
			}
			wg.Wait()
		}
		// Serving memory per node: the frame (the file's columns) and the
		// indexes beside it, which no file size shows.
		b.ReportMetric(float64(v3.Len())/float64(n), "frame-B/node")
		b.ReportMetric(float64(held.Load())/float64(n), "index-B/node")
	})
}

// BenchmarkEngineDoAllocs measures steady-state per-request allocations
// of the protocol dispatch with a warm index cache — the serving tier's
// hot loop.
func BenchmarkEngineDoAllocs(b *testing.B) {
	set := loadBenchSet(b)
	eng, err := adsketch.NewEngine(set)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	req := adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{1, 2, 3, 4, 5, 6, 7, 8}}}
	if _, err := eng.Do(ctx, req); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Do(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFilePath writes data to a temp file and returns its path.
func benchFilePath(b *testing.B, name string, data []byte) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	return path
}
