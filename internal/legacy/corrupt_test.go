package legacy

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"adsketch/internal/core"
	"adsketch/internal/graph"
)

// TestV3BodySizeGuardsColumns: a header that misdescribes which columns
// follow is caught by the body-size check before any column is read.
func TestV3BodySizeGuardsColumns(t *testing.T) {
	files := v3Files(t)
	flags := func(b []byte, clear, set uint32) []byte {
		b = append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(b[12:], binary.LittleEndian.Uint32(b[12:])&^clear|set)
		return b
	}
	for name, data := range map[string][]byte{
		"flagged with a rank column's surplus": flags(legacyV3(t, files["uniform"]), 0, flagDerivedRanks),
		"flag-less, one column short":          flags(perEntryV3(t, files["uniform"]), flagDerivedRanks, 0),
	} {
		if _, err := Read(bytes.NewReader(data), nil); err == nil || !strings.Contains(err.Error(), "header implies") {
			t.Errorf("%s: got %v, want the body-size error", name, err)
		}
	}
}

// TestMergeRefusesMixedRanks: a partition read from a file that stored its
// ranks derives them like any other, so it merges back into the whole set.
func TestMergeRefusesMixedRanks(t *testing.T) {
	g := graph.PreferentialAttachment(40, 3, 9)
	uniform, err := core.BuildSet(g, core.Options{K: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	u, err := core.SplitSketchSet(uniform, 2)
	if err != nil {
		t.Fatal(err)
	}
	stored := read(t, legacyV3(t, v3Bytes(t, u[1])), nil)
	merged, err := core.MergeSketchSets([]*core.Set{u[0], stored})
	if err != nil || !bytes.Equal(v3Bytes(t, merged), v3Bytes(t, uniform)) {
		t.Errorf("merging a partition read from a file that stored its ranks: got %v, want the whole set", err)
	}
}

// TestFreezeOverMatchesFreeze: freezing a few lists over a base read from
// a file that stored its ranks is the set FreezeBottomK assembles from
// every list, with nodes the base lacks.
func TestFreezeOverMatchesFreeze(t *testing.T) {
	o := core.Options{K: 4, Seed: 42}
	base, err := core.BuildSet(graph.PreferentialAttachment(30, 3, 9), o)
	if err != nil {
		t.Fatal(err)
	}
	var lists [][]core.Entry
	for v := int32(0); v < 30; v++ {
		lists = append(lists, base.BottomK(v).Entries())
	}
	changed := map[int32][]core.Entry{}
	for _, v := range []int32{0, 3, 4, 17, 29} {
		changed[v] = lists[v]
	}
	for v := int32(30); v < 33; v++ { // three isolated newcomers
		l := []core.Entry{{Node: v, Dist: 0, Rank: o.Source().Rank(int64(v))}}
		lists, changed[v] = append(lists, l), l
	}
	want, err := core.FreezeBottomK(o, lists)
	if err != nil {
		t.Fatal(err)
	}
	stored := read(t, legacyV3(t, v3Bytes(t, base)), nil)
	got, err := core.FreezeBottomKOver(stored, 33, changed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v3Bytes(t, got), v3Bytes(t, want)) {
		t.Error("frozen set differs from FreezeBottomK of the same lists")
	}
}

// Truncated or header-corrupted version-2 partition files must error, not
// panic or over-allocate (read under the seed the file does not record).
func TestPartitionCorruption(t *testing.T) {
	seed := uint64(42)
	for _, fx := range v2Fixtures {
		if fx.part < 0 {
			continue
		}
		raw := readFixture(t, fx.file)
		read := func(b []byte) error {
			set, err := Read(bytes.NewReader(b), &seed)
			if err == nil && !set.IsPartition() {
				t.Errorf("%s: read a whole set", fx.file)
			}
			return err
		}
		if err := read(raw); err != nil {
			t.Fatalf("%s: intact partition refused: %v", fx.file, err)
		}
		for _, n := range []int{5, 12, 20, len(raw) / 2, len(raw) - 1} {
			if err := read(raw[:n]); err == nil {
				t.Errorf("%s: truncation to %d bytes read successfully", fx.file, n)
			}
		}
		// The partition count, after magic, version, kind and index.
		bad := append([]byte(nil), raw...)
		copy(bad[16:], []byte{0xff, 0xff, 0xff, 0xff})
		if err := read(bad); err == nil || !strings.Contains(err.Error(), "partition count") {
			t.Errorf("%s: implausible partition count: got %v", fx.file, err)
		}
	}
}

// TestRankOrderedPartitionRefusesHostileTotal: a rank-ordered partition
// whose envelope claims a set of 2^30 nodes, its own 30 sketches intact,
// is refused before the order of that set — 12 GB — is built.
func TestRankOrderedPartitionRefusesHostileTotal(t *testing.T) {
	data := append([]byte(nil), readFixture(t, "uniform_v3rank_k4.p1of2.ads")...)
	// The envelope's total: after magic, version, kind, flags, index,
	// count, lo and hi.
	binary.LittleEndian.PutUint32(data[32:], 1<<30)
	if _, err := Read(bytes.NewReader(data), nil); err == nil || !strings.Contains(err.Error(), "claims a 1073741824-node set") {
		t.Fatalf("a partition of a claimed 2^30-node set: got %v, want it refused", err)
	}
}

// TestAdaptedPartitionRefusesHostileEnvelope: an adapted partition's
// owners are looked up by its envelope, so one that places its sketches
// past the set it claims — a total below its nodes, or nodes from 2^31 —
// is refused naming the envelope, not read out of range.
func TestAdaptedPartitionRefusesHostileEnvelope(t *testing.T) {
	intact := readFixture(t, "uniform_v3adapt_k4.p1of2.ads")
	le := binary.LittleEndian
	lo, hi := le.Uint32(intact[24:]), le.Uint32(intact[28:])
	for name, damage := range map[string]func([]byte){
		"total below its nodes": func(b []byte) { le.PutUint32(b[32:], hi-1) },
		"nodes from 2^31": func(b []byte) {
			le.PutUint32(b[24:], 1<<31)
			le.PutUint32(b[28:], 1<<31+hi-lo)
		},
	} {
		data := append([]byte(nil), intact...)
		damage(data)
		if _, err := Read(bytes.NewReader(data), nil); err == nil || !strings.Contains(err.Error(), "partition claims nodes") {
			t.Errorf("%s: got %v, want the envelope refused", name, err)
		}
	}
}

// TestEncodeDetectsCorruption: damaged input of version 2 — a committed
// fixture; nothing writes that format any more — is refused.
func TestEncodeDetectsCorruption(t *testing.T) {
	data := readFixture(t, v2Fixtures[0].file)
	firstNode := 12 + 28 + 4 // prefix, uniform header, entry count
	if _, err := Read(bytes.NewReader(data), nil); err != nil {
		t.Fatalf("intact file refused: %v", err)
	}
	bad := append([]byte("NOPE"), data[4:]...)
	if _, err := Read(bytes.NewReader(bad), nil); err == nil {
		t.Error("bad magic accepted")
	}
	// Wrong version — and version 1, which is no longer read.
	for _, v := range []byte{99, 1} {
		bad = append([]byte(nil), data...)
		bad[4] = v
		if _, err := Read(bytes.NewReader(bad), nil); err == nil || !strings.Contains(err.Error(), "want 3") {
			t.Errorf("version %d: got %v, want the unsupported-version error", v, err)
		}
	}
	if _, err := Read(bytes.NewReader(data[:len(data)/2]), nil); err == nil {
		t.Error("truncated file accepted")
	}
	// An entry renamed: the per-sketch validation catches it.
	bad = append([]byte(nil), data...)
	bad[firstNode] ^= 1
	if _, err := Read(bytes.NewReader(bad), nil); err == nil || !strings.Contains(err.Error(), "corrupt sketch file") {
		t.Errorf("renamed entry: got %v, want a corrupt-file error", err)
	}
}

// addDamaged seeds f with a valid file, four truncations of it and one
// byte flip.
func addDamaged(f *testing.F, valid []byte) {
	f.Add(valid)
	for _, cut := range []int{5, 9, 13, len(valid) / 2} {
		f.Add(valid[:cut])
	}
	mut := append([]byte(nil), valid...)
	mut[len(mut)/2] ^= 0xff
	f.Add(mut)
}

// FuzzReadSet: whatever Read accepts — whole set or partition, any version
// and layout, without a seed or under seed 42, the one a weighted or
// approximate file of an earlier release needs — is a fixed point of the
// writer: it re-serializes, the serving reader reads it back, and it
// re-serializes to the same bytes.  That is adsconvert under hostile
// input.
func FuzzReadSet(f *testing.F) {
	files := v3Files(f)
	addDamaged(f, files["weighted-partition"])
	addDamaged(f, legacyV3(f, files["weighted-partition"]))
	addDamaged(f, rankedV3(f, files["uniform-partition"]))
	// The current layout, the two it replaced — 0x1fe, a uniform set's,
	// and 0x13e, every other kind's — and the two those replaced: 0xfe and
	// 0x3e.
	addDamaged(f, files["uniform-partition"])
	addDamaged(f, adaptiveV3(f, files["uniform-partition"]))
	addDamaged(f, runLengthsV3(f, files["uniform-partition"]))
	addDamaged(f, runLengthsV3(f, files["weighted"]))
	addDamaged(f, riceV3(f, files["weighted-partition"]))
	for _, fx := range v2Fixtures {
		addDamaged(f, readFixture(f, fx.file))
	}
	addDamaged(f, readFixture(f, "kmins_base2_v2_k4.ads")) // refused, naming its flavor
	f.Add([]byte("ADSK"))
	f.Add([]byte{})
	// An empty version-2 uniform set whose base-b is NaN.  The v2 decoder
	// once took it, and WriteTo turned it into a file no reader took back.
	le := binary.LittleEndian
	nan := le.AppendUint32([]byte("ADSK"), 2)
	nan = le.AppendUint32(nan, uint32(core.KindUniform))
	nan = le.AppendUint32(nan, 1)                            // k
	nan = le.AppendUint32(nan, 0)                            // flavor
	nan = le.AppendUint64(nan, 42)                           // seed
	nan = le.AppendUint64(nan, math.Float64bits(math.NaN())) // baseB
	nan = le.AppendUint32(nan, 0)                            // numNodes
	f.Add(nan)
	seed := uint64(42)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, seed := range []*uint64{nil, &seed} {
			set, err := Read(bytes.NewReader(data), seed)
			if err != nil {
				continue
			}
			first := v3Bytes(t, set)
			set, err = core.ReadSketchSet(bytes.NewReader(first))
			if err != nil {
				t.Fatalf("the writer's output of an accepted file is refused: %v", err)
			}
			if !bytes.Equal(v3Bytes(t, set), first) {
				t.Fatal("an accepted file is not a fixed point of write and read")
			}
		}
	})
}
