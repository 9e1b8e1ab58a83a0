package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// openAll opens the file at path through all three entry points, the
// stream reader's result held as a file of the version it read.
func openAll(t *testing.T, path string) map[string]*SketchFile {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	set, err := ReadSketchSet(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: ReadSketchSet: %v", path, err)
	}
	out := map[string]*SketchFile{"ReadSketchSet": newSketchFile(set, int(binary.LittleEndian.Uint32(data[4:])), nil)}
	for opener, open := range map[string]func(string) (*SketchFile, error){"OpenSketchFile": OpenSketchFile, "MmapSketchFile": MmapSketchFile} {
		if out[opener], err = open(path); err != nil {
			t.Fatalf("%s: %s: %v", path, opener, err)
		}
	}
	return out
}

// checkNeedsSeed: every entry point refuses the file at path, which stores
// its ranks but records no seed, naming the command that takes one.
func checkNeedsSeed(t *testing.T, name, path string) {
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
		if err == nil || !strings.Contains(err.Error(), "adstool convert -seed") {
			t.Errorf("%s via %s: %v, want a refusal naming adstool convert -seed", name, reader, err)
		}
	}
}

// TestOpenFrameBytesRefusesRetiredLayouts: the parser views the current
// layout and no other.  Every other combination of the layout's flags
// bits, with the ranks bit and without, with β and without, is refused
// before the body is looked at, naming the command that rewrites it.
func TestOpenFrameBytesRefusesRetiredLayouts(t *testing.T) {
	files := v3Files(t)
	le := binary.LittleEndian
	for _, layout := range []uint32{0, frameFlagStepDists, frameFlagStepDists | frameFlagPackedNodes, frameFlagStepDists | frameFlagPackedNodes | frameFlagCompact} {
		for _, ranks := range []uint32{0, frameFlagDerivedRanks} {
			if layout|ranks == frameFlagsLayout {
				continue
			}
			for _, name := range []string{"uniform", "weighted"} {
				b := append([]byte(nil), files[name]...)
				le.PutUint32(b[12:], layout|ranks|le.Uint32(b[12:])&frameFlagBeta)
				if _, err := openFrameBytes(b); err == nil || !strings.Contains(err.Error(), "adstool convert") {
					t.Errorf("%s under flags %#x: %v, want a refusal naming adstool convert", name, le.Uint32(b[12:]), err)
				}
			}
		}
	}
}

// TestLegacyDoorReadsRetiredLayouts: a file of each retired layout, of
// every kind and of a partition, is refused by the parser and opens
// through all three entry points by the legacy door — unmapped, as version
// 3 — as the rank-free file of the same set, byte for byte.  A file that
// stores its ranks and records no seed — weighted, approximate — is
// refused without one and read with it.
func TestLegacyDoorReadsRetiredLayouts(t *testing.T) {
	dir := t.TempDir()
	layouts := map[string]func(testing.TB, []byte) []byte{"ranks": legacyV3, "per-entry": perEntryV3, "wide": wideV3, "plain": plainV3}
	for name, data := range v3Files(t) {
		for layout, rewrite := range layouts {
			old, label := rewrite(t, data), name+" "+layout
			if _, err := openFrameBytes(old); err == nil || !strings.Contains(err.Error(), "adstool convert") {
				t.Errorf("%s: parser: %v, want a refusal naming adstool convert", label, err)
			}
			path := filepath.Join(dir, name+"-"+layout+".ads")
			if err := os.WriteFile(path, old, 0o644); err != nil {
				t.Fatal(err)
			}
			if layout == "ranks" && name != "uniform" && name != "kmins-base2" {
				checkNeedsSeed(t, label, path)
				set, err := ReadSketchSetWithSeed(bytes.NewReader(old), 42)
				if err != nil || !bytes.Equal(v3Bytes(t, set), data) {
					t.Errorf("%s: with seed 42: %v, or not the rank-free file", label, err)
				}
				continue
			}
			for reader, sf := range openAll(t, path) {
				if sf.Version() != EncodeVersion || sf.Mapped() {
					t.Errorf("%s via %s: version %d, mapped %v", label, reader, sf.Version(), sf.Mapped())
				}
				if !bytes.Equal(v3Bytes(t, sf.Set()), data) {
					t.Errorf("%s via %s: not the rank-free file", label, reader)
				}
				sf.Close()
			}
		}
	}
}

// TestLegacyDoorChecksStoredRanks: a stored rank is checked against the
// one the frame derives in every segment, so one rank an ulp off is
// refused, naming its sketch, segment and entry — in a bottom-k file, in a
// weighted one read under its seed, in a later segment of a k-mins file of
// either version — and so is every rank of a file read under another seed
// than it was built with.
func TestLegacyDoorChecksStoredRanks(t *testing.T) {
	files := v3Files(t)
	legacy := map[string][]byte{}
	for name, data := range files {
		legacy[name] = legacyV3(t, data)
	}
	// rankAt returns where legacyV3's file of set stores the rank of entry
	// i of segment s of node v.
	rankAt := func(set string, v, s, i int) int {
		f := openedSet(t, files[set]).frame
		h, pos, err := readFrameHdr(legacy[set][8:])
		if err != nil {
			t.Fatal(err)
		}
		e := int64(h.numEntries)
		return 8 + pos + int(8*(h.numSegs()+1)+pad8(4*e)+8*e+8*(f.offAt(v*f.segs()+s)+int64(i)))
	}
	v2kmins := readFixture(t, "kmins_base2_v2_k4.ads")
	// Version 2: 40 bytes of header, then node 0's first permutation — a
	// count and 20 bytes an entry — and its second, whose entry 0 has its
	// rank 12 bytes in.
	v2at := 40 + 4 + 20*int(binary.LittleEndian.Uint32(v2kmins[40:])) + 4 + 12
	seed := uint64(42)
	for name, tc := range map[string]struct {
		data []byte
		at   int
		seed *uint64
		want string
	}{
		"bottom-k, segment 0":         {legacy["uniform"], rankAt("uniform", 5, 0, 1), nil, "ADS(5) segment 0 entry 1 "},
		"weighted, segment 0":         {legacy["weighted"], rankAt("weighted", 7, 0, 2), &seed, "ADS(7) segment 0 entry 2 "},
		"k-mins, segment 2":           {legacy["kmins-base2"], rankAt("kmins-base2", 3, 2, 0), nil, "ADS(3) segment 2 entry 0 "},
		"version-2 k-mins, segment 1": {v2kmins, v2at, nil, "ADS(0) segment 1 entry 0 "},
	} {
		if _, err := readAny(bytes.NewReader(tc.data), tc.seed); err != nil {
			t.Fatalf("%s: intact file refused: %v", name, err)
		}
		bad := append([]byte(nil), tc.data...)
		bad[tc.at] ^= 1
		if _, err := readAny(bytes.NewReader(bad), tc.seed); err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "seed derives") {
			t.Errorf("%s: one rank an ulp off: %v, want a refusal naming %q", name, err, tc.want)
		}
	}
	other := uint64(43)
	for name, data := range map[string][]byte{
		"weighted": legacy["weighted"],
		"approx":   legacy["approx"],
		"v2":       readFixture(t, "weighted_v2_k4.ads"),
	} {
		if _, err := readAny(bytes.NewReader(data), &other); err == nil || !strings.Contains(err.Error(), "(seed 43)") {
			t.Errorf("%s under seed 43: %v, want a refusal naming the seed", name, err)
		}
	}
}

// openedSet returns the set a file of the current layout holds.
func openedSet(t testing.TB, data []byte) *Set {
	t.Helper()
	set, err := openFrameBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}
