package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOpenFrameBytesRefusesRetiredLayouts: the parser views the current
// layout and no other.  Every other combination of the layout's flags
// bits, with the ranks bit and without, with β and without, is refused
// before the body is looked at, naming the tool that rewrites it.
func TestOpenFrameBytesRefusesRetiredLayouts(t *testing.T) {
	files := v3Files(t)
	le := binary.LittleEndian
	for _, layout := range []uint32{0, frameFlagStepDists, frameFlagStepDists | frameFlagPackedNodes, frameFlagStepDists | frameFlagPackedNodes | frameFlagCompact, frameFlagsLayout &^ frameFlagDerivedRanks} {
		for _, ranks := range []uint32{0, frameFlagDerivedRanks} {
			for _, name := range []string{"uniform", "weighted", "approx"} {
				b := append([]byte(nil), files[name]...)
				if layout|ranks == layoutFlags(le.Uint32(b[8:])) {
					continue
				}
				le.PutUint32(b[12:], layout|ranks|le.Uint32(b[12:])&frameFlagBeta)
				if _, err := openFrameBytes(b); err == nil || !strings.Contains(err.Error(), "adsconvert") {
					t.Errorf("%s under flags %#x: %v, want a refusal naming adsconvert", name, le.Uint32(b[12:]), err)
				}
			}
		}
	}
	// A uniform set's codes of one Rice parameter a run, the owner's
	// included (flags 0x7e), are of a retired layout.
	for _, name := range []string{"uniform", "uniform-partition"} {
		b := append([]byte(nil), files[name]...)
		le.PutUint32(b[12:], le.Uint32(b[12:])&^frameFlagAdaptNodes)
		if _, err := openFrameBytes(b); err == nil || !strings.Contains(err.Error(), "adsconvert") {
			t.Errorf("%s under flags %#x: %v, want a refusal naming adsconvert", name, le.Uint32(b[12:]), err)
		}
	}
	// Only a uniform set's codes are rank-ordered or adapt: either bit on
	// another kind is no layout any release wrote.
	for _, name := range []string{"weighted", "approx", "weighted-partition"} {
		for _, bit := range []uint32{frameFlagRankNodes, frameFlagAdaptNodes, frameFlagsRanked} {
			b := append([]byte(nil), files[name]...)
			le.PutUint32(b[12:], le.Uint32(b[12:])|bit)
			if _, err := openFrameBytes(b); err == nil || !strings.Contains(err.Error(), "only a uniform set's node codes are rank-ordered") {
				t.Errorf("%s with flags %#x: %v, want a refusal naming the kind", name, le.Uint32(b[12:]), err)
			}
		}
	}
}

// TestReadersRefuseRetiredLayouts: a file of each retired layout, of every
// kind and of a partition — the IDs' own Rice codes, flags 0x3e, and the
// rank-ordered codes of one parameter a run, 0x7e, of the uniform sets,
// whose layouts they were — is refused by every reader — the
// stream reader and both file openers — naming adsconvert, which reads it
// (internal/legacy); so is a version-2 file no fixture holds: an empty
// uniform set whose base-b is NaN.
func TestReadersRefuseRetiredLayouts(t *testing.T) {
	dir := t.TempDir()
	layouts := map[string]func(testing.TB, []byte) []byte{"ranks": legacyV3, "per-entry": perEntryV3, "wide": wideV3, "plain": plainV3, "compact": compactV3, "rice": riceV3, "rank": rankedV3}
	for name, data := range v3Files(t) {
		for layout, rewrite := range layouts {
			if (layout == "rice" || layout == "rank") && !strings.HasPrefix(name, "uniform") {
				continue // the current layout of the other kinds
			}
			path := filepath.Join(dir, name+"-"+layout+".ads")
			if err := os.WriteFile(path, rewrite(t, data), 0o644); err != nil {
				t.Fatal(err)
			}
			checkRefused(t, path)
		}
	}
	if _, err := ReadSketchSet(bytes.NewReader(nanV2())); err == nil || !strings.Contains(err.Error(), "adsconvert") {
		t.Errorf("version 2 with a NaN base: %v, want a refusal naming adsconvert", err)
	}
}

// nanV2 returns an empty version-2 uniform set whose base-b is NaN.  The
// v2 decoder once took it, and WriteTo turned it into a file no reader
// took back.
func nanV2() []byte {
	le := binary.LittleEndian
	nan := le.AppendUint32([]byte("ADSK"), 2)
	nan = le.AppendUint32(nan, uint32(KindUniform))
	nan = le.AppendUint32(nan, 1)                            // k
	nan = le.AppendUint32(nan, 0)                            // flavor
	nan = le.AppendUint64(nan, 42)                           // seed
	nan = le.AppendUint64(nan, math.Float64bits(math.NaN())) // baseB
	return le.AppendUint32(nan, 0)                           // numNodes
}

// pad8 rounds a byte count up to a whole number of words.
func pad8(n int64) int64 { return (n + 7) &^ 7 }
