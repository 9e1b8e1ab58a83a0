package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"
	"unsafe"
)

// Version-3 sketch files: the on-disk layout is the in-memory frame
// layout.  After a fixed little-endian header come the raw columns —
// packed offsets, packed nodes, the distance step code (and betas for
// weighted sets) — every one a whole number of 8-byte words:
//
//	magic "ADSK" | version u32 = 3 | kind u32 | flags u32 |
//	[kind 3 only: index u32 | count u32 | lo u32 | hi u32 |
//	              total u32 | innerKind u32] |
//	k u32 | flavor u32 | seed u64 | baseB f64 | scheme u32 | segs u32 |
//	eps f64 | numNodes u64 | numEntries u64 | numSteps u64 |
//	numDistinct u64 |
//	offsets ceil((numNodes+1)·wo/64)×u64 |
//	nodes ceil(numEntries·w/64)×u64 |
//	first ceil(numEntries/64)×u64 |
//	codes ceil(numSteps·wc/64)×u64 | dict numDistinct×f64,
//	    when numDistinct > 0 — else steps numSteps×f64 |
//	[betas numEntries×f64, when flags bit 0 is set]
//
// so a file is 88 bytes of header (112 for a partition) +
// 8·ceil((numNodes+1)·wo/64) + 8·ceil(numEntries·w/64) +
// 8·ceil(numEntries/64) + either 8·ceil(numSteps·wc/64) + 8·numDistinct
// or 8·numSteps, plus 8·numEntries of betas when weighted.  The widths
// are derived from the header's counts and stored nowhere:
//
//	w  = max(1, bitlen(total−1)), total the node count of the whole set
//	     (numNodes, or the envelope's total in a partition file)
//	wo = max(1, bitlen(numEntries))
//	wc = max(1, bitlen(numDistinct−1))
//
// and bit b of a packed column is bit b%64 of word b/64, counted from the
// least significant; the bits past a column's last value are zero.
//
// Every sketch is bottom-k: flavor is 0 and segs 1, one entry list a
// node.  Earlier releases also wrote k-mins (flavor 1) and k-partition
// (flavor 2) sets, k lists a node; those are refused, naming the flavor.
//
// The distances are step-coded (stepcode.go): bit i of first is set where
// entry i's distance differs from its predecessor's in the sketch, always
// at a sketch start and never past numEntries, and there is one step per
// set bit, so numSteps is the popcount of first.  The code is canonical —
// steps ascend strictly within a sketch — so equal entries are equal
// bytes.  The steps are codes into a dictionary when numDistinct > 0: dict
// is then exactly the distinct step values, strictly ascending, every one
// in use, and step j's distance is dict[code j].  The dictionary is used
// iff it is strictly smaller, numDistinct + ceil(numSteps·wc/64) <
// numSteps, which the values decide and no option does; numDistinct = 0
// means raw steps.  A file holds no ranks: a rank is a pure function of
// the header's seed (recorded for every kind) and the node.
//
// The flags are frameFlagsLayout, plus bit 0 — a β per entry — for
// weighted sets and no others.  Bits 1 to 4 name the steps by which the
// layout became this one: ranks derived rather than stored (1), distances
// step-coded (2), node IDs packed (3), and the numDistinct word with
// packed offsets and dictionary-coded steps (4).  A file with any other
// flags is refused: one without all four is of an earlier release, which
// adsconvert (internal/legacy) rewrites, and a reader from before a bit
// refuses a file that has it, as it must.
//
// Encoding is therefore near-memcpy, and decoding a trusted file is
// O(columns): validate the header, the body size it implies, the offsets'
// monotonicity, the step bits against the step count, that the dictionary
// ascends, and that no bit of a packed column is set past its last value,
// then view the columns in place.  What the openers do not check is inside
// the columns — an ID at or above total, entries out of order, a
// non-canonical step, a code past the dictionary (which reads as its last
// value, never out of range), a dictionary value no step uses, raw steps a
// dictionary would have beaten — which is the stream reader's
// (ReadSketchSet) to refuse.
// OpenSketchFile reads the file once and performs O(1) allocations per
// set; MmapSketchFile maps it (on linux) so even the read is deferred to
// page faults — a worker serving a prebuilt shard file starts in
// microseconds.

// EncodeVersion is the sketch file format version: the one every writer
// emits (Set.WriteTo, for whole sets and partitions alike) and
// OpenSketchFile / MmapSketchFile open zero-copy.
const EncodeVersion = 3

const (
	framePreambleSize = 16 // magic, version, kind, flags
	framePartHdrSize  = 24 // index, count, lo, hi, total, innerKind
	frameHdrSize      = 64 // k .. numSteps; numDistinct follows

	frameFlagBeta         = 1 << 0
	frameFlagDerivedRanks = 1 << 1 // no rank column: ranks derive from the header's seed
	frameFlagStepDists    = 1 << 2 // distances are step-coded: first bits + numSteps steps
	frameFlagPackedNodes  = 1 << 3 // node IDs are packed at the width the set's node count fixes
	frameFlagCompact      = 1 << 4 // numDistinct in the header, packed offsets, steps coded through a dictionary when numDistinct > 0

	// frameFlagsLayout is the flags of the one layout every writer emits
	// and openFrameBytes views, less β.
	frameFlagsLayout = frameFlagDerivedRanks | frameFlagStepDists | frameFlagPackedNodes | frameFlagCompact
)

// nativeLittleEndian reports whether the host stores integers the way the
// format does; when false the zero-copy column views fall back to a
// decoding copy.
var nativeLittleEndian = func() bool {
	//adsvet:ignore wireformat byte-order probe comparing the host order against LE; all wire writes go through binary.LittleEndian
	return binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234
}()

// frameHdr is the parsed fixed-size portion of a version-3 file.
type frameHdr struct {
	kind  uint32
	flags uint32
	// partition envelope (kind 3 only)
	index, count, lo, hi, total, innerKind uint32
	// frame fields
	k, flavor     uint32
	seed          uint64
	baseB         float64
	scheme, segs  uint32
	eps           float64
	n, numEntries uint64
	numSteps      uint64
	numDistinct   uint64 // the dictionary's size; 0 for raw steps
}

// partitioned reports whether the file carries the partition envelope.
func (h *frameHdr) partitioned() bool { return h.kind == kindPartition }

// setKind returns the kind of the stored set (the inner kind for
// partition files).
func (h *frameHdr) setKind() uint32 {
	if h.partitioned() {
		return h.innerKind
	}
	return h.kind
}

// headerSize returns the byte length of everything before the offsets
// column.
func (h *frameHdr) headerSize() int64 {
	s := int64(framePreambleSize + frameHdrSize + 8)
	if h.partitioned() {
		s += framePartHdrSize
	}
	return s
}

// totalNodes returns the node count of the whole set the file is (a
// partition of): what its entries' IDs are below.
func (h *frameHdr) totalNodes() int {
	if h.partitioned() {
		return int(h.total)
	}
	return int(h.n)
}

// nodesSize returns the byte length of the nodes column.
func (h *frameHdr) nodesSize() int64 {
	return packedWords(int64(h.numEntries), nodeWidth(h.totalNodes())) * 8
}

// offsetsSize returns the byte length of the offsets column.
func (h *frameHdr) offsetsSize() int64 {
	return packedWords(int64(h.n)+1, offsetWidth(int64(h.numEntries))) * 8
}

// codesSize returns the byte length of the step codes: 0 for raw steps.
func (h *frameHdr) codesSize() int64 {
	if h.numDistinct == 0 {
		return 0
	}
	return packedWords(int64(h.numSteps), widthBelow(int64(h.numDistinct))) * 8
}

// stepsSize returns the byte length of the step distances: the
// dictionary's, or the raw steps'.
func (h *frameHdr) stepsSize() int64 {
	if h.numDistinct == 0 {
		return int64(h.numSteps) * 8
	}
	return int64(h.numDistinct) * 8
}

// bodySize returns the total byte length of the columns.
func (h *frameHdr) bodySize() int64 {
	e := int64(h.numEntries)
	s := h.offsetsSize() + h.nodesSize() + bitWords(e)*8 + h.codesSize() + h.stepsSize()
	if h.flags&frameFlagBeta != 0 {
		s += e * 8
	}
	return s
}

// params returns the set parameters the header records.
func (h *frameHdr) params() Params {
	return Params{
		Kind:    Kind(h.setKind()),
		Options: Options{K: int(h.k), Seed: h.seed, BaseB: h.baseB},
		Scheme:  WeightScheme(h.scheme),
		Eps:     h.eps,
	}
}

// flavorName names a header's flavor code: the MinHash scheme of the
// sketches of a file, bottom-k for every file this release writes.
func flavorName(flavor uint32) string {
	switch flavor {
	case 0:
		return "bottom-k"
	case 1:
		return "k-mins"
	case 2:
		return "k-partition"
	}
	return "unknown"
}

// validate checks every header field against the format's invariants, so
// a corrupted file errors out before any column is touched.
func (h *frameHdr) validate() error {
	if h.flavor != 0 || h.segs != 1 {
		return fmt.Errorf("core: sketch file holds %s sketches (flavor %d, %d lists a node); only bottom-k sketches are served", flavorName(h.flavor), h.flavor, h.segs)
	}
	if h.setKind() == kindPartition {
		return fmt.Errorf("core: sketch partitions cannot nest")
	}
	if h.partitioned() {
		if err := checkPartRange(int(h.index), int(h.count), int(h.total), int64(h.lo), int64(h.hi)); err != nil {
			return err
		}
		if uint64(h.hi-h.lo) != h.n {
			return fmt.Errorf("core: partition claims nodes [%d, %d) but holds %d sketches", h.lo, h.hi, h.n)
		}
	}
	if h.k > MaxK {
		return fmt.Errorf("core: implausible sketch parameter k=%d", h.k)
	}
	if h.n > 1<<30 {
		return fmt.Errorf("core: implausible node count %d", h.n)
	}
	p := h.params()
	if err := p.validate(); err != nil {
		return err
	}
	if hasBeta := h.flags&frameFlagBeta != 0; hasBeta != (p.Kind == KindWeighted) {
		return fmt.Errorf("core: sketch file beta column mismatch (kind %v, flags %#x)", p.Kind, h.flags)
	}
	if h.numEntries > 1<<40 {
		return fmt.Errorf("core: implausible entry count %d", h.numEntries)
	}
	// At most one step an entry; this also keeps bodySize from overflowing.
	if h.numSteps > h.numEntries {
		return fmt.Errorf("core: sketch file claims %d distance steps for %d entries", h.numSteps, h.numEntries)
	}
	// A dictionary is there only where it is the smaller form; this also
	// bounds it by the steps.
	if h.numDistinct != 0 && (h.numDistinct > h.numSteps || !dictWins(int64(h.numDistinct), int64(h.numSteps))) {
		return fmt.Errorf("core: sketch file codes %d distance steps through %d values, which is no smaller than the steps", h.numSteps, h.numDistinct)
	}
	return nil
}

// headerOf extracts the version-3 header of a set — with the partition
// envelope when it is one — for writing.
func headerOf(s *Set) frameHdr { return headerWith(s, s.frame.ownSteps()) }

// headerWith is headerOf for a caller that holds own, the frame's
// ownSteps(), already.
func headerWith(s *Set, own *stepColumn) frameHdr {
	f := s.frame
	h := frameHdr{
		kind:       uint32(f.p.Kind),
		k:          uint32(f.p.K),
		seed:       f.p.Seed,
		baseB:      f.p.BaseB,
		scheme:     uint32(f.p.Scheme),
		segs:       1,
		eps:        f.p.Eps,
		n:          uint64(f.n),
		numEntries: uint64(f.totalEntries()),
	}
	h.numSteps, h.numDistinct = uint64(own.n), uint64(len(own.dict))
	h.flags = frameFlagsLayout
	if f.p.Kind == KindWeighted {
		h.flags |= frameFlagBeta
	}
	if s.IsPartition() {
		h.innerKind = h.kind
		h.kind = kindPartition
		h.index, h.count = uint32(s.index), uint32(s.count)
		h.lo, h.hi = uint32(s.Lo()), uint32(s.Hi())
		h.total = uint32(f.total)
	}
	return h
}

// appendHeader renders the header (preamble through the last count).
func (h *frameHdr) appendHeader(buf []byte) []byte {
	le := binary.LittleEndian
	buf = append(buf, encodeMagic...)
	buf = le.AppendUint32(buf, EncodeVersion)
	buf = le.AppendUint32(buf, h.kind)
	buf = le.AppendUint32(buf, h.flags)
	if h.partitioned() {
		buf = le.AppendUint32(buf, h.index)
		buf = le.AppendUint32(buf, h.count)
		buf = le.AppendUint32(buf, h.lo)
		buf = le.AppendUint32(buf, h.hi)
		buf = le.AppendUint32(buf, h.total)
		buf = le.AppendUint32(buf, h.innerKind)
	}
	buf = le.AppendUint32(buf, h.k)
	buf = le.AppendUint32(buf, h.flavor)
	buf = le.AppendUint64(buf, h.seed)
	buf = le.AppendUint64(buf, math.Float64bits(h.baseB))
	buf = le.AppendUint32(buf, h.scheme)
	buf = le.AppendUint32(buf, h.segs)
	buf = le.AppendUint64(buf, math.Float64bits(h.eps))
	buf = le.AppendUint64(buf, h.n)
	buf = le.AppendUint64(buf, h.numEntries)
	buf = le.AppendUint64(buf, h.numSteps)
	return le.AppendUint64(buf, h.numDistinct)
}

// countingWriter tracks how many bytes passed through, so WriteTo can
// satisfy the io.WriterTo contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// writeFrameV3 writes a set's frame (behind the partition envelope when
// the set is a partition) in the version-3 format.  On little-endian hosts
// every column is one Write of the slice's underlying bytes — near-memcpy.
func writeFrameV3(w io.Writer, s *Set) (int64, error) {
	f := s.frame
	steps := f.ownSteps()
	h := headerWith(s, steps)
	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	if _, err := bw.Write(h.appendHeader(make([]byte, 0, h.headerSize()))); err != nil {
		return cw.n, err
	}
	var scratch []byte
	writeU64s := func(vals []uint64) error {
		if nativeLittleEndian {
			return writeRaw(bw, u64Bytes(vals))
		}
		buf := growBuf(&scratch, len(vals)*8)
		for i, v := range vals {
			binary.LittleEndian.PutUint64(buf[i*8:], v)
		}
		return writeRaw(bw, buf)
	}
	writeF64s := func(vals []float64) error {
		if nativeLittleEndian {
			return writeRaw(bw, f64Bytes(vals))
		}
		buf := growBuf(&scratch, len(vals)*8)
		for i, v := range vals {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
		}
		return writeRaw(bw, buf)
	}
	// Offsets count from 0, and the steps are coded through the dictionary
	// of their own values, so a sliced partition frame is written as the
	// bytes of an independently loaded or frozen one (ownOffsets, ownSteps).
	if err := writeU64s(f.ownOffsets().words); err != nil {
		return cw.n, err
	}
	// The entries' node bits and step bits start at bit 0 of the file's
	// columns: a frame that owns its columns from there writes the words as
	// they are, a partition's slice of shared ones is shifted out first.
	base, e := f.offAt(0), int64(f.totalEntries())
	width := int64(f.width())
	if err := writeU64s(bitsFrom(f.node.words, base*width, e*width)); err != nil {
		return cw.n, err
	}
	if err := writeU64s(bitsFrom(f.first, base, e)); err != nil {
		return cw.n, err
	}
	dists := steps.raw
	if steps.dict != nil {
		if err := writeU64s(steps.code.words); err != nil {
			return cw.n, err
		}
		dists = steps.dict
	}
	if err := writeF64s(dists); err != nil {
		return cw.n, err
	}
	if h.flags&frameFlagBeta != 0 {
		if err := writeF64s(f.beta[base : base+e]); err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// bitsFrom returns bits [from, from+n) of v as a vector of its own: v
// itself when it holds exactly those, a shifted copy otherwise.
func bitsFrom(v []uint64, from, n int64) []uint64 {
	if from == 0 && int64(len(v)) == bitWords(n) && tailClear(v, n) {
		return v
	}
	out := make([]uint64, bitWords(n))
	copyBits(out, 0, v, from, n)
	return out
}

func writeRaw(bw *bufio.Writer, b []byte) error {
	_, err := bw.Write(b)
	return err
}

// Raw byte views of column slices, used on little-endian hosts where the
// in-memory representation equals the wire representation.

func u64Bytes(v []uint64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

func f64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

// Typed views of raw bytes — the zero-copy direction.  Callers must have
// bounds-checked n against len(b); alignment is verified (mmap bases are
// page-aligned and large heap buffers are 8-aligned, but a misaligned
// source falls back to copying).

func aligned8(b []byte) bool {
	return len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))%8 == 0
}

func viewU64s(b []byte, n int64) []uint64 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
}

func viewF64s(b []byte, n int64) []float64 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
}

// parseFrameHdr parses and validates the header of a version-3 file of the
// current layout.  data starts at the kind field (magic and version
// already consumed); it returns the header and the number of header bytes
// consumed from data.
func parseFrameHdr(data []byte) (frameHdr, int, error) {
	le := binary.LittleEndian
	var h frameHdr
	if len(data) < 8 {
		return h, 0, fmt.Errorf("core: truncated sketch file header")
	}
	h.kind = le.Uint32(data)
	h.flags = le.Uint32(data[4:])
	if h.flags&^frameFlagBeta != frameFlagsLayout {
		return h, 0, fmt.Errorf("core: sketch file has flags %#x, not the current layout's %#x: a file of an earlier release is rewritten with `adsconvert`", h.flags, frameFlagsLayout)
	}
	pos := 8
	if h.kind == kindPartition {
		if len(data) < pos+framePartHdrSize {
			return h, 0, fmt.Errorf("core: truncated partition header")
		}
		h.index = le.Uint32(data[pos:])
		h.count = le.Uint32(data[pos+4:])
		h.lo = le.Uint32(data[pos+8:])
		h.hi = le.Uint32(data[pos+12:])
		h.total = le.Uint32(data[pos+16:])
		h.innerKind = le.Uint32(data[pos+20:])
		pos += framePartHdrSize
	}
	if len(data) < pos+frameHdrSize+8 {
		return h, 0, fmt.Errorf("core: truncated sketch file header")
	}
	h.k = le.Uint32(data[pos:])
	h.flavor = le.Uint32(data[pos+4:])
	h.seed = le.Uint64(data[pos+8:])
	h.baseB = math.Float64frombits(le.Uint64(data[pos+16:]))
	h.scheme = le.Uint32(data[pos+24:])
	h.segs = le.Uint32(data[pos+28:])
	h.eps = math.Float64frombits(le.Uint64(data[pos+32:]))
	h.n = le.Uint64(data[pos+40:])
	h.numEntries = le.Uint64(data[pos+48:])
	h.numSteps = le.Uint64(data[pos+56:])
	h.numDistinct = le.Uint64(data[pos+frameHdrSize:])
	if err := h.validate(); err != nil {
		return h, 0, err
	}
	return h, pos + frameHdrSize + 8, nil
}

// frameFromHdr returns the in-memory frame, no column yet, of a validated
// header.
func frameFromHdr(h frameHdr) *Frame {
	p := h.params()
	f := &Frame{p: p, n: int(h.n), total: h.totalNodes(), by: newRanker(p)}
	f.node.w, f.off.w = nodeWidth(f.total), offsetWidth(int64(h.numEntries))
	if h.partitioned() {
		f.base = int32(h.lo)
	}
	return f
}

// wrap returns the set of a frame read under h, placed in its split when
// h has the partition envelope.
func (h *frameHdr) wrap(f *Frame) *Set {
	set := &Set{frame: f}
	if h.partitioned() {
		set.index, set.count = int(h.index), int(h.count)
	}
	return set
}

// validateOffsets checks that the n offsets are strictly ascending — no
// sketch is empty, every one holding its owner — and cover exactly the
// entry columns, and — first being the step bits — that every sketch
// starts a distance step; everything else about a
// version-3 file is trusted (it is a serving-format for files the operator
// built).
func validateOffsets(off *packedColumn, n, numEntries int64, first []uint64) error {
	if !off.holds(n) {
		return fmt.Errorf("core: sketch file has offset bits past its last offset")
	}
	if off.get(0) != 0 {
		return fmt.Errorf("core: sketch file offsets do not start at 0")
	}
	prev := int64(0)
	for i := int64(1); i < n; i++ {
		o := int64(off.get(i))
		if o <= prev {
			return fmt.Errorf("core: sketch file sketch %d has no entries, or its offsets decrease (every sketch holds its owner)", i-1)
		}
		// o <= numEntries is checked before prev indexes the bits.
		if o <= numEntries && !bitAt(first, prev) {
			return fmt.Errorf("core: sketch file sketch %d does not start with a distance step", i-1)
		}
		prev = o
	}
	if prev != numEntries {
		return fmt.Errorf("core: sketch file offsets end at %d, want %d entries", prev, numEntries)
	}
	return nil
}

// validateSteps checks, with validateOffsets, what licenses indexing the
// step column by the popcount of the bits: as many set bits (marked) as
// steps, and none past the last entry.
func validateSteps(first []uint64, numEntries, marked, numSteps int64) error {
	if marked != numSteps {
		return fmt.Errorf("core: sketch file marks %d distance steps, header claims %d", marked, numSteps)
	}
	if !tailClear(first, numEntries) {
		return fmt.Errorf("core: sketch file marks distance steps past its last entry")
	}
	return nil
}

// validateDict checks that no code bit is set past the last step and that
// the dictionary is one: non-negative and strictly ascending.  The codes
// themselves are trusted like any entry (stepColumn.codeAt).
func validateDict(c *stepColumn) error {
	if !c.code.holds(c.n) {
		return fmt.Errorf("core: sketch file has distance code bits past its last step")
	}
	for i, d := range c.dict {
		if !(d >= 0) || i > 0 && !(d > c.dict[i-1]) {
			return fmt.Errorf("core: sketch file's distance dictionary does not ascend at %d (%g)", i, d)
		}
	}
	return nil
}

// openFrameBytes parses a complete version-3 file held in memory (heap or
// mmap), viewing the columns in place when the host is little-endian and
// the buffer 8-aligned, and copying them otherwise.  It performs O(1)
// allocations on the zero-copy path and never allocates proportionally to
// corrupt header claims: every count is bounds-checked against len(data)
// first.
func openFrameBytes(data []byte) (*Set, error) {
	if len(data) < framePreambleSize {
		return nil, fmt.Errorf("core: truncated sketch file")
	}
	if err := checkPreamble(data); err != nil {
		return nil, err
	}
	h, consumed, err := parseFrameHdr(data[8:])
	if err != nil {
		return nil, err
	}
	body := data[8+consumed:]
	if int64(len(body)) != h.bodySize() {
		return nil, fmt.Errorf("core: sketch file body holds %d bytes, header implies %d", len(body), h.bodySize())
	}
	f := frameFromHdr(h)
	e := int64(h.numEntries)
	// The body-size check above is what licenses every slice below.
	next := func(n int64) []byte {
		b := body[:n]
		body = body[n:]
		return b
	}
	// Every column is 8-byte words of one of two kinds, viewed in place when
	// the host is little-endian and the buffer 8-aligned.
	u64s := func(b []byte) []uint64 { return viewU64s(b, int64(len(b)/8)) }
	f64s := func(b []byte) []float64 { return viewF64s(b, int64(len(b)/8)) }
	if !nativeLittleEndian || !aligned8(body) {
		le := binary.LittleEndian
		u64s = func(b []byte) []uint64 {
			out := make([]uint64, len(b)/8)
			for i := range out {
				out[i] = le.Uint64(b[i*8:])
			}
			return out
		}
		f64s = func(b []byte) []float64 {
			out := make([]float64, len(b)/8)
			for i := range out {
				out[i] = math.Float64frombits(le.Uint64(b[i*8:]))
			}
			return out
		}
	}
	f.off.words = u64s(next(h.offsetsSize()))
	f.node.words = u64s(next(h.nodesSize()))
	f.first = u64s(next(bitWords(e) * 8))
	if err := validateOffsets(&f.off, int64(h.n)+1, e, f.first); err != nil {
		return nil, err
	}
	if !f.node.holds(e) {
		return nil, fmt.Errorf("core: sketch file has node bits past its last entry")
	}
	var marked int64
	f.samp, marked = sampleRanks(f.first)
	if err := validateSteps(f.first, e, marked, int64(h.numSteps)); err != nil {
		return nil, err
	}
	c := &f.steps
	c.n = int64(h.numSteps)
	if h.numDistinct > 0 {
		c.code = packedColumn{words: u64s(next(h.codesSize())), w: widthBelow(int64(h.numDistinct))}
		c.dict = f64s(next(h.stepsSize()))
		if err := validateDict(c); err != nil {
			return nil, err
		}
	} else {
		c.raw = f64s(next(h.stepsSize()))
	}
	if h.flags&frameFlagBeta != 0 {
		f.beta = f64s(next(e * 8))
	}
	return h.wrap(f), nil
}

// SketchFile is an opened sketch file: the set it holds — a whole one or a
// partition — plus the backing memory when the file was opened zero-copy.
//
// Release of the backing memory is reference-counted, so an mmap'd file
// can be swapped out from under live traffic without ever unmapping
// pages a query is still reading: every reader that may outlive the
// owner brackets its reads with Retain / Release, and Close — the
// owner's release — only marks the file draining.  The munmap happens
// when the last reference drops, whichever call that is.
type SketchFile struct {
	set    *Set
	mapped []byte // non-nil iff the columns view an mmap region

	// refs counts live references: the opener's (dropped by Close) plus
	// one per outstanding Retain.  The reference that drops it to zero
	// unmaps.  A non-positive count means fully released.
	refs   atomic.Int64
	closed atomic.Bool // the opener's reference has been dropped
}

// newSketchFile assembles an opened file holding the opener's single
// reference.
func newSketchFile(set *Set, mapped []byte) *SketchFile {
	s := &SketchFile{set: set, mapped: mapped}
	s.refs.Store(1)
	return s
}

// Set returns the set the file holds: a whole set, or a partition
// (Set.IsPartition).
func (s *SketchFile) Set() *Set { return s.set }

// frame returns the frame of the file's set.
func (s *SketchFile) frame() *Frame { return s.set.frame }

// ColumnSize is the byte cost of one part of a version-3 file.
type ColumnSize struct {
	Name  string
	Bytes int64
}

// ColumnBytes lists what each part of the file costs, in file order:
// header, offsets (OffsetBits bits each), nodes (NodeBits bits an entry),
// step bits, then either step codes and the dictionary of distances they
// index or, where a dictionary would be no smaller, steps (8 bytes a
// distance step), then betas where held — every packed column rounded up
// to a word.
func (s *SketchFile) ColumnBytes() []ColumnSize {
	h := headerOf(s.set)
	return h.columns()
}

// columns lists the parts of a file with this header, in file order.
func (h *frameHdr) columns() []ColumnSize {
	e := int64(h.numEntries)
	out := []ColumnSize{
		{"header", h.headerSize()},
		{"offsets", h.offsetsSize()},
		{"nodes", h.nodesSize()},
		{"step bits", bitWords(e) * 8},
	}
	if h.numDistinct > 0 {
		out = append(out, ColumnSize{"step codes", h.codesSize()}, ColumnSize{"dictionary", h.stepsSize()})
	} else {
		out = append(out, ColumnSize{"steps", h.stepsSize()})
	}
	if h.flags&frameFlagBeta != 0 {
		out = append(out, ColumnSize{"betas", e * 8})
	}
	return out
}

// NodeBits returns the bits an entry's node ID takes in the node column:
// what the set's node count needs.
func (s *SketchFile) NodeBits() int { return int(s.frame().width()) }

// OffsetBits returns the bits an offset takes in the offsets column: what
// the file's entry count needs.
func (s *SketchFile) OffsetBits() int { return int(offsetWidth(int64(s.frame().totalEntries()))) }

// DistanceSteps returns how many distance steps the file's sketches have
// in all, and how many distinct distances the file codes them through — 0
// when it holds a float a step, because a dictionary would be no smaller.
func (s *SketchFile) DistanceSteps() (steps, distinct int64) {
	own := s.frame().ownSteps()
	return own.n, int64(len(own.dict))
}

// Mapped reports whether the columns view an mmap'd region (in which
// case the final Close/Release invalidates every sketch and index
// derived from the file).
func (s *SketchFile) Mapped() bool { return s.mapped != nil }

// Refs returns the current reference count: the opener's reference
// (until Close) plus one per outstanding Retain.  Zero means fully
// released.  It is a monitoring value; do not branch program logic on
// it — use Retain's return instead.
func (s *SketchFile) Refs() int64 {
	if r := s.refs.Load(); r > 0 {
		return r
	}
	return 0
}

// Draining reports whether Close has been called while other references
// keep the file alive.
func (s *SketchFile) Draining() bool { return s.closed.Load() && s.refs.Load() > 0 }

// Retain takes an additional reference on the file, keeping its backing
// memory valid across a concurrent Close, and reports whether it
// succeeded: false means the last reference already dropped (the mapping
// may be gone) and the file must not be read.  Every successful Retain
// must be paired with exactly one Release.
func (s *SketchFile) Retain() bool {
	for {
		r := s.refs.Load()
		if r <= 0 {
			return false
		}
		if s.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// Release drops one reference.  The call that drops the count to zero
// unmaps the backing region (if any); after that, every sketch, view,
// and index derived from the file is invalid.
func (s *SketchFile) Release() error {
	if s.refs.Add(-1) != 0 {
		return nil
	}
	m := s.mapped
	s.mapped = nil
	s.set = nil
	if m == nil {
		return nil
	}
	return munmapFile(m)
}

// Close drops the opener's reference, marking the file draining: new
// Retains fail once the count reaches zero, and the backing memory is
// released by whichever call — this one, or the last outstanding
// Release — drops the final reference.  Close is idempotent.
func (s *SketchFile) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	return s.Release()
}

// OpenSketchFile opens a sketch file of the current layout — everything
// the writers emit — reading it in one call and viewing its columns in
// place: O(1) allocations per set on little-endian hosts, and no
// per-sketch validation (the stream reader does that).  Any other file is
// refused with the reason, which for a file of an earlier release names
// adsconvert.
func OpenSketchFile(path string) (*SketchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set, err := openFrameBytes(data)
	if err != nil {
		return nil, err
	}
	return newSketchFile(set, nil), nil
}

// MmapSketchFile opens a sketch file of the current layout by mapping it
// into memory: no column is read until it is queried, so a worker serving
// a prebuilt shard starts in near-constant time regardless of file size.
// On platforms without mmap support it falls back to OpenSketchFile, as it
// does for any other file, which OpenSketchFile refuses with the reason.
func MmapSketchFile(path string) (*SketchFile, error) {
	if !mmapSupported {
		return OpenSketchFile(path)
	}
	fl, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fl.Close()
	st, err := fl.Stat()
	if err != nil {
		return nil, err
	}
	var head [framePreambleSize]byte
	if _, err := io.ReadFull(fl, head[:]); err != nil || !currentLayout(head[:]) {
		return OpenSketchFile(path)
	}
	data, err := mmapFile(fl, int(st.Size()))
	if err != nil {
		return nil, fmt.Errorf("core: mmap %s: %w", path, err)
	}
	set, err := openFrameBytes(data)
	if err != nil {
		munmapFile(data)
		return nil, err
	}
	return newSketchFile(set, data), nil
}

// currentLayout reports whether the bytes begin a version-3 file of the
// layout openFrameBytes views.
func currentLayout(data []byte) bool {
	return len(data) >= framePreambleSize && string(data[:4]) == encodeMagic &&
		binary.LittleEndian.Uint32(data[4:]) == EncodeVersion &&
		binary.LittleEndian.Uint32(data[12:])&^frameFlagBeta == frameFlagsLayout
}
