package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"adsketch/internal/graph"
)

// mmapTestFile builds a small set, writes it as a v3 file, and maps it.
func mmapTestFile(t *testing.T, seed uint64) (*SketchFile, *Set) {
	t.Helper()
	g := graph.PreferentialAttachment(200, 3, 9)
	set, err := BuildSet(g, Options{K: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sketches.ads")
	if err := os.WriteFile(path, v3Bytes(t, set), 0o644); err != nil {
		t.Fatal(err)
	}
	sf, err := MmapSketchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sf, set
}

// The reference-counted lifecycle: Close with an outstanding Retain only
// marks the file draining; the backing memory survives until the last
// Release, after which new Retains fail and Close stays idempotent.
func TestSketchFileRetainRelease(t *testing.T) {
	sf, set := mmapTestFile(t, 42)
	if got := sf.Refs(); got != 1 {
		t.Fatalf("fresh file Refs() = %d, want 1", got)
	}
	if !sf.Retain() {
		t.Fatal("Retain on a live file failed")
	}
	if got := sf.Refs(); got != 2 {
		t.Fatalf("Refs() = %d after Retain, want 2", got)
	}
	if sf.Draining() {
		t.Fatal("file draining before Close")
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	if !sf.Draining() {
		t.Fatal("file not draining after Close with a live reference")
	}
	if mmapSupported && !sf.Mapped() {
		t.Fatal("Close unmapped the region under a live reference")
	}
	// The retained reference still reads valid memory.
	want := EstimateNeighborhoodHIP(set.SketchOf(7), 3)
	if got := EstimateNeighborhoodHIP(sf.Set().SketchOf(7), 3); got != want {
		t.Fatalf("estimate through draining file = %v, want %v", got, want)
	}
	if err := sf.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if got := sf.Refs(); got != 1 {
		t.Fatalf("Refs() = %d after double Close, want 1", got)
	}
	if err := sf.Release(); err != nil {
		t.Fatal(err)
	}
	if sf.Mapped() {
		t.Fatal("region still mapped after the last reference dropped")
	}
	if sf.Retain() {
		t.Fatal("Retain succeeded on a fully released file")
	}
	if got := sf.Refs(); got != 0 {
		t.Fatalf("Refs() = %d after full release, want 0", got)
	}
}

// Close before Retain: the opener's reference is the only one, so Close
// unmaps immediately (the pre-refcount behavior).
func TestSketchFileCloseUnreferenced(t *testing.T) {
	sf, _ := mmapTestFile(t, 42)
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	if sf.Mapped() {
		t.Fatal("unreferenced Close left the region mapped")
	}
	if sf.Set() != nil {
		t.Fatal("Set() still accessible after full release")
	}
}

// Swap an mmap'd file out from under concurrent readers (run with -race):
// readers bracket every read with Retain/Release, the swapper Closes the
// old file as soon as the new one is up, and no read ever touches an
// unmapped page — a reader that loses the Retain race simply moves on to
// the current file.
func TestSketchFileSwapUnderLoad(t *testing.T) {
	const swaps = 20
	files := make([]*SketchFile, swaps)
	for i := range files {
		sf, _ := mmapTestFile(t, uint64(100+i))
		files[i] = sf
	}

	// current is the published file index; readers chase it.
	var mu sync.Mutex
	cur := 0

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				sf := files[cur]
				ok := sf.Retain()
				mu.Unlock()
				if !ok {
					continue
				}
				set := sf.Set()
				for v := int32(0); v < 20; v++ {
					if got := EstimateNeighborhoodHIP(set.SketchOf(v), 2); got < 0 {
						t.Errorf("negative estimate %v", got)
					}
				}
				if err := sf.Release(); err != nil {
					t.Errorf("Release: %v", err)
				}
			}
		}()
	}

	for next := 1; next < swaps; next++ {
		mu.Lock()
		old := files[cur]
		cur = next
		mu.Unlock()
		if err := old.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}
	close(stop)
	wg.Wait()
	if err := files[swaps-1].Close(); err != nil {
		t.Fatal(err)
	}
	for i, sf := range files {
		if sf.Mapped() {
			t.Errorf("file %d still mapped after drain", i)
		}
		if sf.Refs() != 0 {
			t.Errorf("file %d holds %d refs after drain", i, sf.Refs())
		}
	}
}

// TestReadersRefuseEmptySketch: every ADS holds its owner at distance 0,
// so a file in which a node's sketch has no entries is corrupt, and every
// reader refuses it naming the sketch — the validating stream reader and
// both openers, which trust everything but the offsets.
func TestReadersRefuseEmptySketch(t *testing.T) {
	for _, p := range []Params{
		{Kind: KindUniform, Options: Options{K: 2, Seed: 1}},
		{Kind: KindApprox, Options: Options{K: 2, Seed: 1}, Eps: 0.5},
	} {
		rank := p.rankFn()
		lists := [][]Entry{
			{{Node: 0, Dist: 0, Rank: rank(0)}, {Node: 2, Dist: 1, Rank: rank(2)}},
			nil,
			{{Node: 2, Dist: 0, Rank: rank(2)}},
		}
		b := v3Bytes(t, &Set{frame: freezeWhole(p, lists)})
		path := filepath.Join(t.TempDir(), "empty.ads")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		check := func(reader string, err error) {
			if err == nil || !strings.Contains(err.Error(), "sketch 1 has no entries") {
				t.Errorf("%v set, %s: got %v, want the empty sketch 1 refused", p.Kind, reader, err)
			}
		}
		_, err := ReadSketchSet(bytes.NewReader(b))
		check("ReadSketchSet", err)
		for name, open := range map[string]func(string) (*SketchFile, error){"OpenSketchFile": OpenSketchFile, "MmapSketchFile": MmapSketchFile} {
			sf, err := open(path)
			if err == nil {
				sf.Close()
			}
			check(name, err)
		}
	}
}
