package adsketch_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adsketch"
	"adsketch/internal/distbuild"
)

// buildAllKinds returns one sketch set of each kind over the same graph.
func buildAllKinds(t *testing.T) map[string]adsketch.SketchSet {
	t.Helper()
	g := adsketch.WithRandomWeights(adsketch.GNP(90, 0.06, false, 11), 1, 4, 12)
	beta := make([]float64, g.NumNodes())
	for i := range beta {
		beta[i] = 0.5 + float64(i%5)
	}
	out := map[string]adsketch.SketchSet{}
	for name, opts := range map[string][]adsketch.Option{
		"uniform":           {adsketch.WithK(5), adsketch.WithSeed(3)},
		"uniform/baseb":     {adsketch.WithK(5), adsketch.WithSeed(3), adsketch.WithBaseB(2)},
		"weighted":          {adsketch.WithK(5), adsketch.WithSeed(3), adsketch.WithNodeWeights(beta)},
		"weighted/priority": {adsketch.WithK(5), adsketch.WithSeed(3), adsketch.WithNodeWeights(beta), adsketch.WithPriorityRanks()},
		"approx":            {adsketch.WithK(5), adsketch.WithSeed(3), adsketch.WithApproxEps(0.25)},
	} {
		set, err := adsketch.Build(g, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = set
	}
	return out
}

// ReadSketchSet(WriteTo(set)) must reproduce identical estimates for all
// set kinds — the acceptance bar of the universal codec.
func TestWriteToReadSketchSetRoundTrip(t *testing.T) {
	for name, set := range buildAllKinds(t) {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			n, err := set.WriteTo(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(buf.Len()) {
				t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
			}
			got, err := adsketch.ReadSketchSet(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got.NumNodes() != set.NumNodes() || got.K() != set.K() || got.TotalEntries() != set.TotalEntries() {
				t.Fatalf("shape changed: (%d,%d,%d) vs (%d,%d,%d)",
					got.NumNodes(), got.K(), got.TotalEntries(),
					set.NumNodes(), set.K(), set.TotalEntries())
			}
			for v := int32(0); int(v) < set.NumNodes(); v++ {
				for _, d := range []float64{0, 1, 2.5, math.Inf(1)} {
					a := adsketch.EstimateNeighborhoodHIP(set.SketchOf(v), d)
					b := adsketch.EstimateNeighborhoodHIP(got.SketchOf(v), d)
					if a != b {
						t.Fatalf("node %d, d=%g: %g vs %g after round trip", v, d, a, b)
					}
				}
				a := adsketch.EstimateCentrality(set.SketchOf(v), adsketch.KernelHarmonic, adsketch.UnitBeta)
				b := adsketch.EstimateCentrality(got.SketchOf(v), adsketch.KernelHarmonic, adsketch.UnitBeta)
				if a != b {
					t.Fatalf("node %d: harmonic %g vs %g after round trip", v, a, b)
				}
			}
			// A second serialization is byte-identical (deterministic codec).
			var buf2 bytes.Buffer
			if _, err := got.WriteTo(&buf2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Error("re-serialization differs")
			}
			// The kind and its parameters — scheme, epsilon — survive.
			if want, got := set.Params(), got.Params(); got != want {
				t.Errorf("parameters changed: %+v -> %+v", want, got)
			}
		})
	}
}

// Bad headers are refused in the format the reader takes, the version-3
// bytes WriteTo emits; a committed version-2 file of an earlier release is
// refused whole, naming the tool that rewrites it.
func TestReadSketchSetRejectsBadHeaders(t *testing.T) {
	var buf bytes.Buffer
	if _, err := buildAllKinds(t)["uniform"].WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"weighted_v2_k4.ads", "kmins_base2_v2_k4.ads"} {
		v2, err := os.ReadFile("internal/legacy/testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := adsketch.ReadSketchSet(bytes.NewReader(v2)); err == nil || !strings.Contains(err.Error(), "adsconvert") {
			t.Errorf("%s: %v, want a refusal naming adsconvert", name, err)
		}
	}
	data := buf.Bytes()
	if _, err := adsketch.ReadSketchSet(bytes.NewReader(data)); err != nil {
		t.Fatalf("intact file refused: %v", err)
	}
	// Wrong magic.
	bad := append([]byte("NOPE"), data[4:]...)
	if _, err := adsketch.ReadSketchSet(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: %v", err)
	}
	// Unsupported versions: an unknown one, and 1, which is no longer read.
	for _, v := range []byte{99, 1} {
		bad = append([]byte(nil), data...)
		bad[4] = v
		if _, err := adsketch.ReadSketchSet(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "want 3") {
			t.Errorf("version %d: %v", v, err)
		}
	}
	// Unknown kind.
	bad = append([]byte(nil), data...)
	bad[8] = 77
	if _, err := adsketch.ReadSketchSet(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("bad kind: %v", err)
	}
	// Truncated.
	if _, err := adsketch.ReadSketchSet(bytes.NewReader(data[:len(data)/3])); err == nil {
		t.Error("truncated file accepted")
	}
	// Empty.
	if _, err := adsketch.ReadSketchSet(bytes.NewReader(nil)); err == nil {
		t.Error("empty file accepted")
	}
}

// TestEveryWriterEmitsV3: there is one file format.  WriteTo is
// WriteSketchSetV3 / WritePartitionV3 byte for byte, for every set kind,
// and whatever writes a sketch file — the WriteTo methods, an Ingestor's
// publish directory, a distributed build's Freeze — writes version 3 with
// derived ranks and the seed that derives them.
func TestEveryWriterEmitsV3(t *testing.T) {
	checkHeader := func(name string, data []byte, partition bool) {
		t.Helper()
		seedAt := 16 + 8 // preamble; k, flavor
		if partition {
			seedAt += 24
		}
		le := binary.LittleEndian
		switch {
		case len(data) < seedAt+8 || string(data[:4]) != "ADSK" || le.Uint32(data[4:]) != adsketch.SketchFormatVersion:
			t.Errorf("%s: does not start ADSK | %d", name, adsketch.SketchFormatVersion)
		case le.Uint32(data[12:])&2 == 0:
			t.Errorf("%s: derived-ranks flag clear: the file stores a rank column", name)
		case le.Uint64(data[seedAt:]) == 0:
			t.Errorf("%s: no seed recorded", name)
		}
	}
	for name, set := range buildAllKinds(t) {
		var a, b bytes.Buffer
		if _, err := set.WriteTo(&a); err != nil {
			t.Fatal(err)
		}
		if _, err := adsketch.WriteSketchSetV3(&b, set); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: WriteTo and WriteSketchSetV3 differ", name)
		}
		checkHeader(name, a.Bytes(), false)
		parts, err := adsketch.SplitSketchSet(set, 3)
		if err != nil {
			t.Fatal(err)
		}
		a.Reset()
		b.Reset()
		if _, err := parts[1].WriteTo(&a); err != nil {
			t.Fatal(err)
		}
		if _, err := adsketch.WritePartitionV3(&b, parts[1]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: a partition's WriteTo and WritePartitionV3 differ", name)
		}
		checkHeader(name+" partition", a.Bytes(), true)
	}

	// An Ingestor's published file.
	cat, err := adsketch.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	ing, err := adsketch.NewEmptyIngestor(false, 4, 9, adsketch.WithPublish(cat, "filed"), adsketch.WithPublishDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	var edges bytes.Buffer
	for i := int32(0); i < 20; i++ {
		if err := ing.Insert(i, (i+1)%20); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&edges, i, (i+1)%20)
	}
	res, err := ing.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	published, err := os.ReadFile(res.Path)
	if err != nil {
		t.Fatal(err)
	}
	checkHeader("ingestor publish dir", published, false)

	// A distributed build's partition blobs, over the same cycle.
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, edges.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	exs, err := distbuild.NewLocalExchangers(distbuild.Spec{Path: path, N: 20, K: 4, Seed: 9, Kind: distbuild.KindApprox, Eps: 0.25, Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	built, err := distbuild.Run(context.Background(), exs)
	if err != nil {
		t.Fatal(err)
	}
	for i, blob := range built.Partitions {
		checkHeader(fmt.Sprintf("distbuild partition %d", i), blob, true)
	}
}

// TestRefusesOtherFlavors: a k-mins or k-partition file, as the last
// release to build them wrote it (`adstool build -flavor kmins|kpartition
// -k 4 -seed 42` on `gen -type ba -n 60 -m 3 -seed 9`), is refused by
// every reader, naming its flavor: a set holds bottom-k sketches only.  So
// is one of a layout older still — the flavor is named before the layout,
// as no release serves such a file in any layout.
func TestRefusesOtherFlavors(t *testing.T) {
	for path, flavor := range map[string]string{
		"testdata/kmins_v3_k4.ads":                           "k-mins",
		"testdata/kpartition_v3_k4.ads":                      "k-partition",
		"internal/legacy/testdata/kmins_base2_v3pack_k4.ads": "k-mins",
	} {
		for name, open := range map[string]func(string) error{
			"OpenSketchFile": func(p string) error {
				sf, err := adsketch.OpenSketchFile(p)
				if err == nil {
					sf.Close()
				}
				return err
			},
			"MmapSketchFile": func(p string) error {
				sf, err := adsketch.MmapSketchFile(p)
				if err == nil {
					sf.Close()
				}
				return err
			},
			"ReadSketchSet": func(p string) error {
				f, err := os.Open(p)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				_, err = adsketch.ReadSketchSet(f)
				return err
			},
		} {
			if err := open(path); err == nil || !strings.Contains(err.Error(), flavor+" sketches") {
				t.Errorf("%s(%s): %v, want a refusal naming %s", name, path, err, flavor)
			}
		}
	}
}
