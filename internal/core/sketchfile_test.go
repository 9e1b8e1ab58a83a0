package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
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

// The file's lifecycle now that it counts no references of its own: the
// opener holds the only one, reads through the live mapping see the set
// that was written, releasing it is Close (the catalog's version drain
// calls it after the last reader), and a second Close does nothing.
func TestSketchFileRetainRelease(t *testing.T) {
	sf, set := mmapTestFile(t, 42)
	if mmapSupported && !sf.Mapped() {
		t.Fatal("MmapSketchFile did not map the file")
	}
	want := EstimateNeighborhoodHIP(set.SketchOf(7), 3)
	if got := EstimateNeighborhoodHIP(sf.Set().SketchOf(7), 3); got != want {
		t.Fatalf("estimate through the mapped file = %v, want %v", got, want)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	if sf.Mapped() {
		t.Fatal("region still mapped after Close released it")
	}
	if err := sf.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if sf.Mapped() || sf.Set() != nil {
		t.Fatal("second Close brought the file back")
	}
}

// Close unmaps at once and clears the set: nothing else holds a reference.
func TestSketchFileCloseUnreferenced(t *testing.T) {
	sf, _ := mmapTestFile(t, 42)
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	if sf.Mapped() {
		t.Fatal("Close left the region mapped")
	}
	if sf.Set() != nil {
		t.Fatal("Set() still accessible after Close")
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
		b := v3Bytes(t, &Set{frame: mustFreezeWhole(p, lists)})
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
