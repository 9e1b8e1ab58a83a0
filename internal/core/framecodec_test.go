package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"adsketch/internal/graph"
)

// frameKinds builds one set of every kind the codec must carry.
func frameKinds(t *testing.T) map[string]*Set {
	t.Helper()
	g := graph.PreferentialAttachment(120, 3, 9)
	out := map[string]*Set{}
	for name, o := range map[string]Options{
		"bottomk": {K: 8, Seed: 42},
		"baseb":   {K: 8, Seed: 42, BaseB: 2},
	} {
		set, err := BuildSet(g, o)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = set
	}
	beta := make([]float64, g.NumNodes())
	for i := range beta {
		beta[i] = 1 + float64(i%7)
	}
	weighted, err := BuildWeightedSetParallel(g, 8, 42, beta, ExponentialWeights, 0)
	if err != nil {
		t.Fatal(err)
	}
	out["weighted"] = weighted
	priority, err := BuildWeightedSetParallel(g, 8, 42, beta, PriorityWeights, 0)
	if err != nil {
		t.Fatal(err)
	}
	out["priority"] = priority
	out["approx"] = approxFixture(t, "pa120_k8")
	return out
}

// approxFixture reads testdata/approx_<name>.ads: an approximate set
// (seed 42, ε = 0.25) of the graph each caller builds beside it, written
// by the in-process (1+ε) rounds while core still held them (lab's
// BuildApprox does now), so the codec, partition, step-code and freeze
// tests keep an approximate set to carry.
func approxFixture(t testing.TB, name string) *Set {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "approx_"+name+".ads"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	set, err := ReadSketchSet(f)
	if err != nil {
		t.Fatal(err)
	}
	if p := set.Params(); p.Kind != KindApprox || p.Seed != 42 || p.Eps != 0.25 {
		t.Fatalf("%s: fixture of %+v", name, p)
	}
	return set
}

// v3Bytes is the canonical comparison key: two sets serializing to the
// same version-3 bytes hold bit-identical sketches.
func v3Bytes(t testing.TB, s *Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
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
			data := v3Bytes(t, set)

			// Streaming path (ReadSketchSet on arbitrary readers).
			streamed, err := ReadSketchSet(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("stream read: %v", err)
			}
			if got := v3Bytes(t, streamed); !bytes.Equal(got, data) {
				t.Fatalf("streamed v3 round trip differs from original (%d vs %d bytes)", len(got), len(data))
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
			if sf.Set().IsPartition() {
				t.Fatal("whole-set file opened as partition")
			}
			opened := sf.Set()
			if got := v3Bytes(t, opened); !bytes.Equal(got, data) {
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
			want := v3Bytes(t, set)
			parts, err := SplitSketchSet(set, 3)
			if err != nil {
				t.Fatal(err)
			}
			reloaded := make([]*Set, len(parts))
			for i, p := range parts {
				var buf bytes.Buffer
				if _, err := p.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				// Stream path.
				rp, err := ReadSketchSet(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("partition %d: %v", i, err)
				}
				ri, rc := rp.Part()
				pi, pc := p.Part()
				if !rp.IsPartition() || ri != pi || rc != pc || rp.Lo() != p.Lo() ||
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
				if !sf.Set().IsPartition() {
					t.Fatalf("partition file %d did not open as a partition", i)
				}
				reloaded[i] = sf.Set()
			}
			merged, err := MergeSketchSets(reloaded)
			if err != nil {
				t.Fatal(err)
			}
			if got := v3Bytes(t, merged); !bytes.Equal(got, want) {
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
		set, err := BuildSet(g, Options{K: 8, Seed: 42})
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
	// 10 since the step code: the file, its parse, and one more than before
	// for the sampled popcounts that locate a segment's steps.  The packed
	// columns — node IDs, offsets, step codes — and the dictionary are viewed
	// in place like the plain ones were, and add none.
	small, large := openAllocs(50), openAllocs(2000)
	if small > 10 {
		t.Errorf("opening a v3 set costs %.0f allocations, want at most 10", small)
	}
	if large != small {
		t.Errorf("allocations grow with the set: %.0f (50 nodes) vs %.0f (2000 nodes)", small, large)
	}
}

// TestMmapSketchFile: the mapped file serves identical estimates and
// reports its mapping.
func TestMmapSketchFile(t *testing.T) {
	g := graph.PreferentialAttachment(200, 3, 9)
	set, err := BuildSet(g, Options{K: 8, Seed: 42})
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
	if got := v3Bytes(t, sf.Set()); !bytes.Equal(got, v3Bytes(t, set)) {
		t.Fatal("mmap'd set differs from original")
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	if sf.Set() != nil {
		t.Error("Set() still accessible after Close")
	}
	// A v2 file is neither mapped nor decoded: adsconvert rewrites it.
	if sf2, err := MmapSketchFile(legacyFixture(v2Fixtures[0])); err == nil || !strings.Contains(err.Error(), "adsconvert") {
		t.Errorf("v2 file: %v, want a refusal naming adsconvert", err)
		if err == nil {
			sf2.Close()
		}
	}
}

// v2Fixtures are the committed version-2 files, which internal/legacy
// reads and tests; nothing in this tree writes the format.
var v2Fixtures = []string{
	"uniform_v2_k8.ads", "kmins_base2_v2_k4.ads", "weighted_v2_k4.ads",
	"priority_v2_k4.ads", "approx_v2_k4.ads", "weighted_v2_k4.p1of2.ads",
}

// legacyFixture returns the path of a committed file of an earlier
// release, kept with the decoder that reads it.
func legacyFixture(name string) string { return filepath.Join("..", "legacy", "testdata", name) }

// readLegacyFixture returns the bytes of a committed file of an earlier
// release.
func readLegacyFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(legacyFixture(name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkRefused: every reader refuses the file of an earlier release at
// path, naming adsconvert, the tool that rewrites it.
func checkRefused(t *testing.T, path string) { t.Helper(); checkRefusedNaming(t, path, "adsconvert") }

// checkRefusedNaming: every reader refuses the file at path with an error
// that names want.
func checkRefusedNaming(t *testing.T, path, want string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ReadSketchSet(bytes.NewReader(data))
	errs := map[string]error{"ReadSketchSet": err}
	for opener, open := range map[string]func(string) (*SketchFile, error){"OpenSketchFile": OpenSketchFile, "MmapSketchFile": MmapSketchFile} {
		sf, err := open(path)
		if err == nil {
			sf.Close()
		}
		errs[opener] = err
	}
	for reader, err := range errs {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s via %s: %v, want a refusal naming %s", filepath.Base(path), reader, err, want)
		}
	}
}

// TestV2FixtureBackCompat: back-compatibility with version 2 is
// adsconvert's (internal/legacy's test of this name reads every committed
// file); every reader here refuses each one, naming it.
func TestV2FixtureBackCompat(t *testing.T) {
	for _, name := range v2Fixtures {
		checkRefused(t, legacyFixture(name))
	}
}

// TestOpenFrameBytesRejectsCorruption: header and offset corruption must
// error out, never panic or over-allocate — through the parser, and
// through the stream reader that hands it the bytes.
func TestOpenFrameBytesRejectsCorruption(t *testing.T) {
	g := graph.PreferentialAttachment(60, 3, 9)
	set, err := BuildSet(g, Options{K: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	valid := v3Bytes(t, set)
	if _, err := openFrameBytes(valid); err != nil {
		t.Fatalf("valid bytes rejected: %v", err)
	}
	le := binary.LittleEndian
	mutate := func(name string, fn func(b []byte)) {
		b := append([]byte(nil), valid...)
		fn(b)
		if _, err := openFrameBytes(b); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
		if _, err := ReadSketchSet(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: corruption accepted by the stream reader", name)
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
	rebuilt := func(fn func(p *v3Parts)) func(b []byte) {
		return func(b []byte) {
			p := splitV3(t, b)
			fn(&p)
			copy(b, p.bytes())
		}
	}
	mutate("offsets decrease", rebuilt(func(p *v3Parts) { p.offs[1] = 1<<testWidth(p.h.numEntries+1) - 1 }))
	// Last offset claims other than the entries the columns hold.
	mutate("offsets overrun", rebuilt(func(p *v3Parts) { p.offs[60] ^= 1 }))
	for _, cut := range []int{1, 8, 15, 16 + frameHdrSize - 1, len(valid) / 2, len(valid) - 1} {
		b := valid[:cut]
		if _, err := openFrameBytes(b); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
		if _, err := ReadSketchSet(bytes.NewReader(b)); err == nil {
			t.Errorf("truncation at %d accepted by the stream reader", cut)
		}
	}
	// A plausible claim — 2^29 nodes, 4 GB of offsets — over a 100-byte
	// stream: refused by the body-size check, with nothing allocated for it.
	b := append([]byte(nil), valid[:100]...)
	le.PutUint64(b[16+40:], 1<<29)
	if _, err := ReadSketchSet(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "header implies") {
		t.Errorf("2^29 nodes over 100 bytes: got %v, want the body-size error", err)
	}
}

// TestStreamReadersValidateOpenersTrust: the stream readers take input of
// unknown origin and check every sketch; the file openers serve what the
// operator built and look at nothing beyond the header and the offsets.
// One entry of an otherwise intact v3 file renamed tells them apart.
func TestStreamReadersValidateOpenersTrust(t *testing.T) {
	set, err := BuildSet(graph.Cycle(10), Options{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := SplitSketchSet(set, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"set": v3Bytes(t, set), "partition": v3Bytes(t, parts[0])} {
		// Node 0's second entry (4 bits an ID), renamed.
		data[splitV3(t, data).nodesAt] ^= 0x30
		if _, err := ReadSketchSet(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "corrupt sketch file") {
			t.Errorf("%s via ReadSketchSet: got %v, want a corrupt-file refusal", name, err)
		}
		path := filepath.Join(t.TempDir(), name+".ads")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for opener, open := range map[string]func(string) (*SketchFile, error){"OpenSketchFile": OpenSketchFile, "MmapSketchFile": MmapSketchFile} {
			sf, err := open(path)
			if err != nil {
				t.Errorf("%s via %s: %v, want the file trusted", name, opener, err)
				continue
			}
			sf.Close()
		}
	}
}

// FuzzOpenSketchFile drives the one v3 parser with arbitrary bytes: it
// must never panic or allocate according to unvalidated header claims,
// anything it accepts must answer Index(v) for every v without panicking,
// node codes it does not look into included, and of a file of the current
// layout the stream reader — the same parser plus per-sketch validation —
// accepts a subset of what it accepts, as the same sets.
func FuzzOpenSketchFile(f *testing.F) {
	g := graph.PreferentialAttachment(40, 3, 9)
	set, err := BuildSet(g, Options{K: 4, Seed: 42})
	if err != nil {
		f.Fatal(err)
	}
	var whole bytes.Buffer
	if _, err := set.WriteTo(&whole); err != nil {
		f.Fatal(err)
	}
	f.Add(whole.Bytes())
	parts, err := SplitSketchSet(set, 2)
	if err != nil {
		f.Fatal(err)
	}
	var part bytes.Buffer
	if _, err := parts[1].WriteTo(&part); err != nil {
		f.Fatal(err)
	}
	f.Add(part.Bytes())
	// Every kind nine ways: as written now — run lengths in the node stream
	// and step offsets, a uniform set's node codes rank-ordered at adaptive
	// parameters, the owners' implied — and in the eight retired layouts the
	// parser refuses (the last two with step bits: the IDs' own Rice codes
	// being the layout they replaced for the other kinds, and adapted
	// rank-ordered codes for a uniform set's); and as written now with its
	// node codes corrupted — bits flipped, a word of them zeroed, a word set
	// — which the openers trust.
	for _, data := range v3Files(f) {
		f.Add(data)
		f.Add(adaptiveV3(f, data))
		f.Add(riceV3(f, data))
		f.Add(rankedV3(f, data))
		f.Add(compactV3(f, data))
		f.Add(plainV3(f, data))
		f.Add(wideV3(f, data))
		f.Add(perEntryV3(f, data))
		f.Add(legacyV3(f, data))
		nodesAt := splitV3(f, data).nodesAt
		for _, corrupt := range []func(b []byte){
			func(b []byte) { b[nodesAt] ^= 0x5a },
			func(b []byte) { b[nodesAt+9] ^= 0x01 },
			func(b []byte) { copy(b[nodesAt:nodesAt+8], make([]byte, 8)) },
			func(b []byte) { copy(b[nodesAt+8:nodesAt+16], bytes.Repeat([]byte{0xff}, 8)) },
		} {
			b := append([]byte(nil), data...)
			corrupt(b)
			f.Add(b)
		}
	}
	// Every way the step code, the packed node column and the compact
	// columns can lie.
	_, hostile, _ := hostileStepFiles(f)
	for _, data := range hostile {
		f.Add(data)
	}
	small, hostile, _ := hostileNodeFiles(f)
	compact, lies, _ := hostileCompactFiles(f)
	for _, files := range []map[string][]byte{small, hostile, compact, lies} {
		for _, data := range files {
			f.Add(data)
		}
	}
	f.Add([]byte("ADSK"))
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := openFrameBytes(data)
		sset, serr := ReadSketchSet(bytes.NewReader(data))
		if err != nil {
			if serr == nil && currentLayout(data) {
				t.Fatalf("the stream reader accepted what the parser refuses: %v", err)
			}
			return
		}
		if serr == nil && !bytes.Equal(v3Bytes(t, sset), v3Bytes(t, set)) {
			t.Fatal("the stream reader and the parser read different sets from the same bytes")
		}
		// Whatever the openers accept answers every node's index — what
		// serving builds on a node's first query — however corrupt the node
		// codes, garbage estimates and all, without a panic; and the views
		// too.
		n := set.NumNodes()
		for v := 0; v < n; v++ {
			x := set.Index(int32(v))
			_, _, _ = indexEntries(x), x.Closeness(), x.EstimateQ(func(node int32, d float64) float64 { return d })
			if v < 8 {
				_ = set.SketchOf(int32(v)).HIPEntries()
			}
		}
		_ = set.TotalEntries()
	})
}

// TestValidateFrameFirstBadSketch: the validating reader checks node
// ranges on GOMAXPROCS goroutines, and of two corrupt sketches in
// different ranges it reports the first in node order, the same error at
// every core count (make cpus runs it at 1, 2 and 4).
func TestValidateFrameFirstBadSketch(t *testing.T) {
	const n = 4096 // four ranges of minCoderNodes
	set, err := BuildSet(graph.PreferentialAttachment(n, 3, 5), Options{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := v3Bytes(t, set)
	parts := splitV3(t, data)
	// A byte wholly inside node v's codes, renamed.
	corrupt := func(v int) {
		lo, hi := (parts.boffs[v]+7)/8, parts.boffs[v+1]/8
		if lo >= hi {
			t.Fatalf("node %d's codes hold no whole byte", v)
		}
		data[parts.nodesAt+int64(lo)] ^= 0x5a
	}
	first, second := 100, 3000
	corrupt(second)
	_, errSecond := ReadSketchSet(bytes.NewReader(data))
	corrupt(first)
	_, err = ReadSketchSet(bytes.NewReader(data))
	if err == nil || errSecond == nil {
		t.Fatalf("corrupt sketches accepted: %v, %v", err, errSecond)
	}
	if want := fmt.Sprintf("ADS(%d)", first); !strings.Contains(err.Error(), want) {
		t.Errorf("got %v, want the error of %s, the first corrupt sketch", err, want)
	}
	if want := fmt.Sprintf("ADS(%d)", second); !strings.Contains(errSecond.Error(), want) {
		t.Errorf("with only node %d corrupt: got %v, want the error of %s", second, errSecond, want)
	}
}
