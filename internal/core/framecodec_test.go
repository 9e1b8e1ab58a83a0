package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"adsketch/internal/graph"
	"adsketch/internal/sketch"
)

// frameKinds builds one set of every kind/flavor the codec must carry.
func frameKinds(t *testing.T) map[string]AnySet {
	t.Helper()
	g := graph.PreferentialAttachment(120, 3, 9)
	out := map[string]AnySet{}
	for name, o := range map[string]Options{
		"bottomk":    {K: 8, Seed: 42},
		"kmins":      {K: 4, Flavor: sketch.KMins, Seed: 42},
		"kpartition": {K: 4, Flavor: sketch.KPartition, Seed: 42},
		"baseb":      {K: 8, Seed: 42, BaseB: 2},
	} {
		set, err := BuildSet(g, o, AlgoPrunedDijkstra)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = set
	}
	beta := make([]float64, g.NumNodes())
	for i := range beta {
		beta[i] = 1 + float64(i%7)
	}
	weighted, err := BuildWeightedSet(g, 8, 42, beta)
	if err != nil {
		t.Fatal(err)
	}
	out["weighted"] = weighted
	priority, err := BuildPriorityWeightedSet(g, 8, 42, beta)
	if err != nil {
		t.Fatal(err)
	}
	out["priority"] = priority
	approx, err := BuildApproxSet(g, 8, 42, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	out["approx"] = approx
	return out
}

// v2Bytes is the canonical comparison key: two sets serializing to the
// same version-2 bytes hold bit-identical sketches.
func v2Bytes(t *testing.T, s AnySet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func v3Bytes(t *testing.T, s AnySet) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteSketchSetV3(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteSketchSetV3 reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// TestFrameCodecRoundTrip: every set kind must survive the v3 codec
// bit-for-bit, through both the streaming reader and the zero-copy file
// opener.
func TestFrameCodecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for name, set := range frameKinds(t) {
		t.Run(name, func(t *testing.T) {
			want := v2Bytes(t, set)
			data := v3Bytes(t, set)

			// Streaming path (ReadSketchSet on arbitrary readers).
			streamed, err := ReadSketchSet(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("stream read: %v", err)
			}
			if got := v2Bytes(t, streamed); !bytes.Equal(got, want) {
				t.Fatalf("streamed v3 round trip differs from original (%d vs %d bytes)", len(got), len(want))
			}

			// Zero-copy path.
			path := filepath.Join(dir, name+".ads")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			sf, err := OpenSketchFile(path)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			if sf.Partition() != nil {
				t.Fatal("whole-set file opened as partition")
			}
			opened := sf.Set()
			if got := v2Bytes(t, opened); !bytes.Equal(got, want) {
				t.Fatalf("opened v3 round trip differs from original")
			}
			// Estimates (and therefore HIP weights) must be bit-identical.
			for v := 0; v < set.NumNodes(); v += 17 {
				a, b := set.SketchOf(int32(v)).HIPEntries(), opened.SketchOf(int32(v)).HIPEntries()
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("node %d HIP entries differ after v3 round trip", v)
				}
			}
		})
	}
}

// TestPartitionV3RoundTrip: kind-3 v3 shard files keep the partition
// header and merge back bit-for-bit.
func TestPartitionV3RoundTrip(t *testing.T) {
	for name, set := range frameKinds(t) {
		t.Run(name, func(t *testing.T) {
			want := v2Bytes(t, set)
			parts, err := SplitSketchSet(set, 3)
			if err != nil {
				t.Fatal(err)
			}
			reloaded := make([]*Partition, len(parts))
			for i, p := range parts {
				var buf bytes.Buffer
				if _, err := WritePartitionV3(&buf, p); err != nil {
					t.Fatal(err)
				}
				// Stream path.
				rp, err := ReadPartition(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("partition %d: %v", i, err)
				}
				if rp.Index() != p.Index() || rp.Count() != p.Count() || rp.Lo() != p.Lo() ||
					rp.Hi() != p.Hi() || rp.TotalNodes() != p.TotalNodes() {
					t.Fatalf("partition %d header mangled: %+v", i, rp)
				}
				// Zero-copy path.
				path := filepath.Join(t.TempDir(), "part.ads")
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				sf, err := OpenSketchFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if sf.Set() != nil || sf.Partition() == nil {
					t.Fatalf("partition file %d did not open as a partition", i)
				}
				reloaded[i] = sf.Partition()
			}
			merged, err := MergeSketchSets(reloaded)
			if err != nil {
				t.Fatal(err)
			}
			if got := v2Bytes(t, merged); !bytes.Equal(got, want) {
				t.Fatal("merge of reloaded v3 partitions differs from original")
			}
		})
	}
}

// TestOpenSketchFileAllocs pins the O(1)-allocations-per-set claim: the
// allocation count of opening a v3 file must be a small constant that
// does not grow with the set.
func TestOpenSketchFileAllocs(t *testing.T) {
	if !nativeLittleEndian {
		t.Skip("zero-copy open requires a little-endian host")
	}
	dir := t.TempDir()
	openAllocs := func(n int) float64 {
		g := graph.PreferentialAttachment(n, 3, 9)
		set, err := BuildSet(g, Options{K: 8, Seed: 42}, AlgoPrunedDijkstra)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "allocs.ads")
		if err := os.WriteFile(path, v3Bytes(t, set), 0o644); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			sf, err := OpenSketchFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_ = sf.Set().TotalEntries()
		})
	}
	small, large := openAllocs(50), openAllocs(2000)
	if small > 16 {
		t.Errorf("opening a v3 set costs %.0f allocations, want O(1)", small)
	}
	if large != small {
		t.Errorf("allocations grow with the set: %.0f (50 nodes) vs %.0f (2000 nodes)", small, large)
	}
}

// TestMmapSketchFile: the mapped file serves identical estimates and
// reports its mapping.
func TestMmapSketchFile(t *testing.T) {
	g := graph.PreferentialAttachment(200, 3, 9)
	set, err := BuildSet(g, Options{K: 8, Seed: 42}, AlgoPrunedDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mmap.ads")
	if err := os.WriteFile(path, v3Bytes(t, set), 0o644); err != nil {
		t.Fatal(err)
	}
	sf, err := MmapSketchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if mmapSupported && !sf.Mapped() {
		t.Error("v3 file not mapped on a platform with mmap support")
	}
	want := v2Bytes(t, set)
	if got := v2Bytes(t, sf.Set().(AnySet)); !bytes.Equal(got, want) {
		t.Fatal("mmap'd set differs from original")
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	if sf.Set() != nil {
		t.Error("Set() still accessible after Close")
	}
	// v2 files go through the decode fallback and are not mapped.
	v2path := filepath.Join(t.TempDir(), "v2.ads")
	f, err := os.Create(v2path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sf2, err := MmapSketchFile(v2path)
	if err != nil {
		t.Fatal(err)
	}
	if sf2.Mapped() {
		t.Error("v2 file reported as mapped")
	}
	if got := v2Bytes(t, sf2.Set().(AnySet)); !bytes.Equal(got, want) {
		t.Fatal("v2 fallback set differs from original")
	}
}

// TestV2FixtureBackCompat reads the committed pre-refactor version-2
// file: it must load through every reader, and a fresh deterministic
// build must still serialize to exactly those bytes (pinning both the
// builders and the v2 writer across the columnar refactor).
func TestV2FixtureBackCompat(t *testing.T) {
	const fixture = "testdata/uniform_v2_k8.ads"
	data, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	set, err := ReadSketchSet(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("reading committed v2 fixture: %v", err)
	}
	if set.NumNodes() != 200 || set.K() != 8 {
		t.Fatalf("fixture holds %d nodes, k=%d; want 200, 8", set.NumNodes(), set.K())
	}
	sf, err := OpenSketchFile(fixture)
	if err != nil {
		t.Fatalf("OpenSketchFile on v2 fixture: %v", err)
	}
	if !bytes.Equal(v2Bytes(t, sf.Set()), data) {
		t.Error("v2 fixture does not round trip through OpenSketchFile")
	}
	g := graph.PreferentialAttachment(200, 3, 7)
	rebuilt, err := BuildSet(g, Options{K: 8, Seed: 42}, AlgoPrunedDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v2Bytes(t, rebuilt), data) {
		t.Error("fresh deterministic build no longer matches the committed v2 bytes")
	}
}

// TestOpenFrameBytesRejectsCorruption: header and offset corruption must
// error out, never panic or over-allocate.
func TestOpenFrameBytesRejectsCorruption(t *testing.T) {
	g := graph.PreferentialAttachment(60, 3, 9)
	set, err := BuildSet(g, Options{K: 4, Seed: 42}, AlgoPrunedDijkstra)
	if err != nil {
		t.Fatal(err)
	}
	valid := v3Bytes(t, set)
	if _, _, err := openFrameBytes(valid); err != nil {
		t.Fatalf("valid bytes rejected: %v", err)
	}
	le := binary.LittleEndian
	mutate := func(name string, fn func(b []byte)) {
		b := append([]byte(nil), valid...)
		fn(b)
		if _, _, err := openFrameBytes(b); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
	mutate("bad magic", func(b []byte) { b[0] = 'X' })
	mutate("bad version", func(b []byte) { le.PutUint32(b[4:], 99) })
	mutate("bad kind", func(b []byte) { le.PutUint32(b[8:], 77) })
	mutate("bad flags", func(b []byte) { le.PutUint32(b[12:], 0xff) })
	mutate("zero k", func(b []byte) { le.PutUint32(b[16:], 0) })
	mutate("huge node count", func(b []byte) { le.PutUint64(b[16+40:], 1<<40) })
	mutate("huge entry count", func(b []byte) { le.PutUint64(b[16+48:], 1<<50) })
	mutate("segs mismatch", func(b []byte) { le.PutUint32(b[16+28:], 3) })
	mutate("offsets decrease", func(b []byte) {
		le.PutUint64(b[framePreambleSize+frameHdrSize+8:], ^uint64(0)) // offsets[1] = -1
	})
	mutate("offsets overrun", func(b []byte) {
		// Last offset claims more entries than the columns hold.
		nSegs := int64(60)
		pos := int64(framePreambleSize+frameHdrSize) + nSegs*8
		le.PutUint64(b[pos:], 1<<30)
	})
	for _, cut := range []int{1, 8, 15, 16 + frameHdrSize - 1, len(valid) / 2, len(valid) - 1} {
		b := valid[:cut]
		if _, _, err := openFrameBytes(b); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// FuzzOpenSketchFile drives the v3 zero-copy parser with arbitrary
// bytes: it must never panic or allocate according to unvalidated header
// claims, and anything it accepts must behave like a sketch set.
func FuzzOpenSketchFile(f *testing.F) {
	g := graph.PreferentialAttachment(40, 3, 9)
	set, err := BuildSet(g, Options{K: 4, Seed: 42}, AlgoPrunedDijkstra)
	if err != nil {
		f.Fatal(err)
	}
	var whole bytes.Buffer
	if _, err := WriteSketchSetV3(&whole, set); err != nil {
		f.Fatal(err)
	}
	f.Add(whole.Bytes())
	parts, err := SplitSketchSet(set, 2)
	if err != nil {
		f.Fatal(err)
	}
	var part bytes.Buffer
	if _, err := WritePartitionV3(&part, parts[1]); err != nil {
		f.Fatal(err)
	}
	f.Add(part.Bytes())
	// Every kind both ways: rank-free, and with the stored rank column of
	// files written before ranks were derived.
	for _, data := range v3Files(f) {
		f.Add(data)
		f.Add(legacyV3(f, data))
	}
	f.Add([]byte("ADSK"))
	f.Fuzz(func(t *testing.T, data []byte) {
		set, p, err := openFrameBytes(data)
		if err != nil {
			return
		}
		if (set == nil) == (p == nil) {
			t.Fatal("accepted bytes yielded neither set nor partition")
		}
		if p != nil {
			set = p.Set()
		}
		// Exercise the views; corrupt-but-well-formed data may yield
		// garbage estimates but must never crash.
		n := set.NumNodes()
		for v := 0; v < n && v < 8; v++ {
			_ = set.SketchOf(int32(v)).HIPEntries()
		}
		_ = set.TotalEntries()
		// The streaming reader must agree on acceptance.
		if _, _, serr := ReadSketchFile(bytes.NewReader(data)); serr != nil {
			t.Fatalf("zero-copy parser accepted what the streaming reader rejects: %v", serr)
		}
	})
}
