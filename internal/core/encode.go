package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// The stream readers.  Everything this tree writes is version 3
// (framecodec.go), which has one parser, openFrameBytes; the stream
// readers hand it the bytes of a file of the current layout and then
// validate every sketch, and hand any other file to the legacy decoder
// (legacy.go).  All integers are little-endian.

const (
	encodeMagic = "ADSK"
	// v2EncodeVersion is the version number of the files of the per-entry
	// stream format that came before the columnar one (legacy.go).
	v2EncodeVersion = 2
	// MaxK bounds the sketch parameter: what Options.validate accepts and
	// a file may claim, so that neither a build nor a corrupted header can
	// drive huge per-node allocations, and k fits the header's 32 bits.
	MaxK = 1 << 20
	// maxCodecPartitions bounds the partition count a file may claim.
	maxCodecPartitions = 1 << 20
)

// kindPartition is the kind code of a file that holds a partition: the
// set's own Kind follows in the envelope.
const kindPartition uint32 = 3

// MemoryOf reports what a set's columns hold in memory (heap, or mapping
// for an mmap'd file): offsets, packed nodes, distance step code, β.  The
// HIP indexes a server builds per queried node are its cache's to count.
func MemoryOf(s *Set) int64 { return s.frame.bytes() }

// growBuf returns *buf resized to n bytes, reallocating only when the
// capacity is short — the codec's per-call scratch, reused across nodes.
func growBuf(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

// readAny parses any sketch file — whole set or partition.  seed, when
// non-nil, derives the ranks of a file that stores them but records no
// seed.
func readAny(r io.Reader, seed *uint64) (*Set, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:4]); err != nil {
		return nil, fmt.Errorf("core: reading sketch file magic: %w", err)
	}
	if string(head[:4]) != encodeMagic {
		return nil, fmt.Errorf("core: not a sketch file (magic %q)", head[:4])
	}
	if _, err := io.ReadFull(r, head[4:]); err != nil {
		return nil, fmt.Errorf("core: reading sketch file version: %w", err)
	}
	switch version := binary.LittleEndian.Uint32(head[4:]); version {
	case v2EncodeVersion:
		return readV2(newSetDecoder(r), seed)
	case EncodeVersion:
		// A regular file says how much is coming; anything else is read as
		// it arrives.
		var size int64
		if f, ok := r.(*os.File); ok {
			if st, err := f.Stat(); err == nil && st.Mode().IsRegular() {
				size = st.Size()
			}
		}
		return readFrameStream(r, size, seed)
	default:
		return nil, fmt.Errorf("core: sketch file version %d, supported versions are %d and %d",
			version, v2EncodeVersion, EncodeVersion)
	}
}

// ReadSketchSet deserializes a sketch file of any kind written by
// Set.WriteTo (or by the version-2 writers of earlier releases) — a whole
// set or a partition (Set.IsPartition), whichever the file holds —
// validating the structural invariants of every sketch, unlike
// OpenSketchFile, which trusts the file.
func ReadSketchSet(r io.Reader) (*Set, error) { return readAny(r, nil) }

// ReadSketchSetWithSeed is ReadSketchSet for a file of an earlier release
// that stores its ranks but records no seed — a weighted or approximate
// one, which ReadSketchSet refuses: every stored rank is checked against
// the one seed derives, and the set derives them from it.  A file that
// records a seed other than seed is refused.
func ReadSketchSetWithSeed(r io.Reader, seed uint64) (*Set, error) {
	set, err := readAny(r, &seed)
	if err != nil {
		return nil, err
	}
	if recorded := set.frame.p.Seed; recorded != seed {
		return nil, fmt.Errorf("core: seed %d given, but the sketch file records seed %d", seed, recorded)
	}
	return set, nil
}

// validateDecoded checks the structural invariants of every sketch of a
// decoded frame and — lists being the per-segment entry lists it was
// frozen from, when they carry ranks — that their ranks are the ones the
// frame derives.
func validateDecoded(f *Frame, lists [][]Entry) error {
	var ranks rankScratch
	for v := 0; v < f.n; v++ {
		var given [][]Entry
		if lists != nil {
			given = lists[v*f.segs() : (v+1)*f.segs()]
		}
		if err := f.validate(&ranks, v, given); err != nil {
			return fmt.Errorf("core: corrupt sketch file: %w", err)
		}
	}
	return nil
}

// validateApproxView checks the invariants an approximate sketch
// guarantees regardless of ε: canonical order, distinct nodes, and the
// owner as first entry at distance 0.  Approximate sketches relax the
// exact inclusion rule (entries may be justified by an ε-slack window
// that the final state no longer exhibits), so only the rank-independent
// invariants are checked.
func validateApproxView(a *ADS) error {
	owner, n := a.node, a.c.len()
	seen := make(map[int32]bool, n)
	for i := 0; i < n; i++ {
		e := a.c.at(i)
		if i > 0 && !a.c.at(i-1).before(e) {
			return fmt.Errorf("core: approx ADS(%d) entries %d,%d out of canonical order", owner, i-1, i)
		}
		if seen[e.Node] {
			return fmt.Errorf("core: approx ADS(%d) contains node %d twice", owner, e.Node)
		}
		seen[e.Node] = true
		if math.IsNaN(e.Dist) || math.IsInf(e.Dist, 1) || e.Dist < 0 {
			return fmt.Errorf("core: approx ADS(%d) entry %d has invalid distance %g", owner, i, e.Dist)
		}
		// Approximate sketches are built over uniform ranks in (0, 1]; a
		// rank outside that range would corrupt the 1/τ HIP weights.
		if !(e.Rank > 0) || e.Rank > 1 {
			return fmt.Errorf("core: approx ADS(%d) entry %d has invalid rank %g", owner, i, e.Rank)
		}
	}
	if n > 0 && (a.c.nodeAt(0) != owner || a.c.distAt(0) != 0) {
		return fmt.Errorf("core: approx ADS(%d) does not start with the owner at distance 0", owner)
	}
	return nil
}
