package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"
)

// The stream reader.  Everything this tree writes — and everything it
// reads — is version 3 of the current layout (framecodec.go), which has
// one parser, openFrameBytes; the stream reader hands it the bytes and
// then validates every sketch.  A file of an earlier release is refused,
// naming adsconvert, the tool that rewrites it.  All integers are
// little-endian.

const (
	encodeMagic = "ADSK"
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
// for an mmap'd file): bit offsets, the sketches' bits, the dictionary and
// a uniform set's rank order.  The
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

// checkPreamble refuses the first 8 bytes of anything but a sketch file
// of EncodeVersion, naming what it is instead.
func checkPreamble(head []byte) error {
	if string(head[:4]) != encodeMagic {
		return fmt.Errorf("core: not a sketch file (magic %q)", head[:4])
	}
	switch v := binary.LittleEndian.Uint32(head[4:]); v {
	case EncodeVersion:
		return nil
	case 2: // the per-entry stream of the releases before the columnar frame
		return fmt.Errorf("core: sketch file version 2, an earlier release's: rewrite it with `adsconvert`")
	default:
		return fmt.Errorf("core: sketch file version %d, want %d", v, EncodeVersion)
	}
}

// ReadSketchSet deserializes a sketch file of any kind written by
// Set.WriteTo — a whole set or a partition (Set.IsPartition), whichever
// the file holds — validating the structural invariants of every sketch,
// unlike OpenSketchFile, which trusts the file.  The stream is read to its
// end before anything past the preamble is parsed, so allocation follows
// the bytes that arrived, never a header's claim: into one buffer of the
// file's size when r is a regular file (the file system's word, not the
// data's), by doubling otherwise.
func ReadSketchSet(r io.Reader) (*Set, error) {
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("core: reading sketch file preamble: %w", err)
	}
	if err := checkPreamble(head[:]); err != nil {
		return nil, err
	}
	var size int64
	if f, ok := r.(*os.File); ok {
		if st, err := f.Stat(); err == nil && st.Mode().IsRegular() {
			size = st.Size()
		}
	}
	// ReadFrom keeps bytes.MinRead free while it reads: with that much
	// slack a file of the stated size never grows the buffer.
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	buf.Write(head[:])
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("core: reading sketch file: %w", err)
	}
	set, err := openFrameBytes(buf.Bytes())
	if err != nil {
		return nil, err
	}
	f := set.frame
	if err := validateFrame(f, nil); err != nil {
		return nil, fmt.Errorf("core: corrupt sketch file: %w", err)
	}
	if err := f.canonical(); err != nil {
		return nil, fmt.Errorf("core: corrupt sketch file: %w", err)
	}
	return set, nil
}

// canonical checks that the frame's sketches hold the entries and steps its
// header claims, and that their steps are the one coding of their values:
// through a dictionary of exactly their distinct values where one wins
// (which the header's counts showed it does), raw where none would.
func (f *Frame) canonical() error {
	dict := f.node.lc.dict
	var entries, steps int64
	var raw []float64
	used := make([]bool, len(dict))
	for v := range f.n {
		l := f.listAt(v)
		entries, steps = entries+int64(l.nodes.n), steps+int64(l.sd.n)
		if dict == nil {
			raw = l.sd.appendSteps(raw)
			continue
		}
		r := l.sd.reader()
		for range l.sd.n {
			r.next()
			used[r.idx] = true
		}
	}
	if entries != f.entries || steps != f.steps {
		return fmt.Errorf("its sketches hold %d entries in %d distance steps, its header claims %d in %d", entries, steps, f.entries, f.steps)
	}
	if at := slices.Index(used, false); at >= 0 {
		return fmt.Errorf("its distance dictionary holds %g, which no step is at", dict[at])
	}
	if d := distinctSteps(raw); dict == nil && dictWins(int64(len(d)), steps, int64(f.n)) {
		return fmt.Errorf("its %d distance steps are raw, where a dictionary of their %d values is smaller", steps, len(d))
	}
	return nil
}

// validateFrame checks the structural invariants of every sketch of a
// frame and — lists being the entry lists it was frozen from, when
// non-nil — that their ranks are the ones the frame derives.  Up to
// GOMAXPROCS goroutines each check a node range (splitSpan) with a
// rankScratch of their own, their memos sharing rankMemoSlots, and the
// error is the first bad sketch's in node order, whatever their count.
func validateFrame(f *Frame, lists [][]Entry) error {
	workers := max(1, min(passWorkers(0, f.n), f.n/minCoderNodes))
	slots := rankMemoSlots >> bits.Len(uint(workers-1))
	errs := make([]error, workers)
	fanOut(workers, func(w int) {
		ranks := rankScratch{memo: make([]rankMemoSlot, slots)}
		lo, hi := splitSpan(w, workers, f.n)
		for v := lo; v < hi && errs[w] == nil; v++ {
			var given []Entry
			if lists != nil {
				given = lists[v]
			}
			errs[w] = f.validate(&ranks, v, given)
		}
	})
	return cmp.Or(errs...)
}

// validateApproxView checks the invariants an approximate sketch
// guarantees regardless of ε: canonical order, distinct nodes, and the
// owner first, alone at distance 0.  Approximate sketches relax the
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
	if n == 0 || a.c.node[0] != owner || a.c.distAt(0) != 0 || n > 1 && a.c.distAt(1) == 0 {
		return fmt.Errorf("core: approx ADS(%d) does not start with the owner alone at distance 0", owner)
	}
	return nil
}
