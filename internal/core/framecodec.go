package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"unsafe"
)

// Version-3 sketch files: the on-disk layout is the in-memory frame
// layout.  After a fixed little-endian header come the raw columns —
// packed offsets, bit offsets and step offsets, the node codes, the
// distance steps (and betas for weighted sets) — every one a whole number
// of 8-byte words:
//
//	magic "ADSK" | version u32 = 3 | kind u32 | flags u32 |
//	[kind 3 only: index u32 | count u32 | lo u32 | hi u32 |
//	              total u32 | innerKind u32] |
//	k u32 | flavor u32 | seed u64 | baseB f64 | scheme u32 | segs u32 |
//	eps f64 | numNodes u64 | numEntries u64 | numSteps u64 |
//	numDistinct u64 | numNodeBits u64 |
//	offsets ceil((numNodes+1)·wo/64)×u64 |
//	bit offsets ceil((numNodes+1)·wb/64)×u64 |
//	step offsets ceil((numNodes+1)·ws/64)×u64 |
//	nodes ceil(numNodeBits/64)×u64 |
//	codes ceil(numSteps·wc/64)×u64 | dict numDistinct×f64,
//	    when numDistinct > 0 — else steps numSteps×f64 |
//	[betas numEntries×f64, when flags bit 0 is set]
//
// so a file is 96 bytes of header (120 for a partition) +
// 8·ceil((numNodes+1)·wo/64) + 8·ceil((numNodes+1)·wb/64) +
// 8·ceil((numNodes+1)·ws/64) + 8·ceil(numNodeBits/64) + either
// 8·ceil(numSteps·wc/64) + 8·numDistinct or 8·numSteps, plus
// 8·numEntries of betas when weighted.  The widths are derived from the
// header's counts and stored nowhere:
//
//	wo = max(1, bitlen(numEntries))
//	wb = max(1, bitlen(numNodeBits))
//	ws = max(1, bitlen(numSteps))
//	wc = max(1, bitlen(numDistinct−1))
//
// and bit b of a packed column is bit b%64 of word b/64, counted from the
// least significant; the bits past a column's last value are zero.
//
// The nodes are one stream of numNodeBits bits, sketch i's Rice codes
// (nodepack.go) being bits [bit offset i, bit offset i+1); total, the
// node count the IDs are below, is numNodes, or the envelope's total in a
// partition file.  Sketch i's n entries are its R steps' runs, [step
// offset i, step offset i+1): the owner's, then one a step, each but those
// two led by its length m−1, at a parameter adapted from ⌊(n−1)/(R−1)⌋.  A uniform
// set's runs code the nodes' positions in the set's rank order — its
// total nodes sorted by (rank, node), which the seed and base derive —
// below the k-th smallest position of the sketch's entries at smaller
// distances (total while there are fewer than k), each gap's Rice
// parameter adapted to the run's gaps before it, and a sketch's entry 0,
// its owner, has no code; a weighted or approximate set's code the IDs
// below total, every entry, a run's gaps at one parameter.
//
// Every sketch is bottom-k: flavor is 0 and segs 1, one entry list a
// node.  Earlier releases also wrote k-mins (flavor 1) and k-partition
// (flavor 2) sets, k lists a node; those are refused, naming the flavor,
// whatever their layout.
//
// The distances are step-coded (stepcode.go): a sketch's steps are its
// distinct distances, ascending, one a run, so the step offsets ascend
// strictly from 0 to numSteps.  The code is canonical — steps ascend
// strictly within a sketch — so equal entries are equal bytes.  The steps are codes into a dictionary when numDistinct > 0: dict
// is then exactly the distinct step values, strictly ascending, every one
// in use, and step j's distance is dict[code j].  The dictionary is used
// iff it is strictly smaller, numDistinct + ceil(numSteps·wc/64) <
// numSteps, which the values decide and no option does; numDistinct = 0
// means raw steps.  A file holds no ranks: a rank is a pure function of
// the header's seed (recorded for every kind) and the node.
//
// The flags are frameFlagsLayout, plus bit 0 — a β per entry — for
// weighted sets and no others, and bits 6 and 7 for uniform sets and no
// others.  Bits 1 to 8 name the steps by which the layout became this
// one: ranks derived rather than stored (1), distances step-coded (2),
// node IDs packed (3), the numDistinct word with packed offsets and
// dictionary-coded steps (4), node IDs Rice-coded per run, with the
// numNodeBits word and the bit offsets (5), a uniform set's runs coded in
// rank order below their bottom-k bound (6), their Rice parameters
// adapted gap by gap, the owner's code implied (7), and the runs' lengths
// coded in the node stream with step offsets in place of a bit an entry
// marking where a step starts (8).  A file with any other flags is
// refused: one without all of its kind's is of an earlier release, which
// adsconvert (internal/legacy) rewrites — a uniform file with flags 0x3e,
// 0x7e or 0xfe, a weighted or approximate one with 0x3e, among them — and
// a reader from before a bit refuses a file that has it, as it must.
//
// Encoding is therefore near-memcpy, and decoding a trusted file is
// O(columns): validate the header, the body size it implies, the offsets',
// bit offsets' and step offsets' monotonicity, that the dictionary
// ascends, and that no bit of a column is set past its last value, then
// view the columns in place.  What the openers do not check is inside the
// columns — node bits that are not their sketch's codes or lengths (which
// no decoder reads past, nor runs past its sketch's entries or steps), a
// sketch's steps that its entries cannot fill, an ID at or above total, a
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
	frameHdrSize      = 64 // k .. numSteps; numDistinct and numNodeBits follow

	frameFlagBeta         = 1 << 0
	frameFlagDerivedRanks = 1 << 1 // no rank column: ranks derive from the header's seed
	frameFlagStepDists    = 1 << 2 // distances are step-coded: numSteps steps, one a run of equal distance
	frameFlagPackedNodes  = 1 << 3 // node IDs are packed at the width the set's node count fixes
	frameFlagCompact      = 1 << 4 // numDistinct in the header, packed offsets, steps coded through a dictionary when numDistinct > 0
	frameFlagRiceNodes    = 1 << 5 // node IDs Rice-coded per equal-distance run: numNodeBits in the header, bit offsets beside the offsets
	frameFlagRankNodes    = 1 << 6 // uniform sets only: a run's codes are of rank-order positions below its bottom-k bound
	frameFlagAdaptNodes   = 1 << 7 // uniform sets only: a gap's Rice parameter adapts to its run's gaps before it; the owner has no code
	frameFlagRunLengths   = 1 << 8 // run lengths in the node stream, step offsets in place of a step bit an entry

	// frameFlagsLayout is the flags of the one layout every writer emits
	// and openFrameBytes views, less β and, for a uniform set, its node
	// codes' bits (layoutFlags).
	frameFlagsLayout = frameFlagDerivedRanks | frameFlagStepDists | frameFlagPackedNodes | frameFlagCompact | frameFlagRiceNodes | frameFlagRunLengths
	frameFlagsRanked = frameFlagRankNodes | frameFlagAdaptNodes
)

// layoutFlags returns the flags of the current layout of a set of kind
// kind, less β: a uniform set's node codes are rank-ordered, and no other
// kind's are.
func layoutFlags(kind uint32) uint32 {
	if Kind(kind) == KindUniform {
		return frameFlagsLayout | frameFlagsRanked
	}
	return frameFlagsLayout
}

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
	numNodeBits   uint64 // the node stream's length
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
	s := int64(framePreambleSize + frameHdrSize + 16)
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

// implied returns how many entries have no node code: a uniform set's
// owners, one a sketch.
func (h *frameHdr) implied() uint64 {
	if Kind(h.setKind()) == KindUniform {
		return h.n
	}
	return 0
}

// nodesSize returns the byte length of the node stream.
func (h *frameHdr) nodesSize() int64 { return bitWords(int64(h.numNodeBits)) * 8 }

// offsetsSize returns the byte length of the offsets column.
func (h *frameHdr) offsetsSize() int64 {
	return packedWords(int64(h.n)+1, offsetWidth(int64(h.numEntries))) * 8
}

// bitOffsetsSize returns the byte length of the bit offsets column.
func (h *frameHdr) bitOffsetsSize() int64 {
	return packedWords(int64(h.n)+1, offsetWidth(int64(h.numNodeBits))) * 8
}

// stepOffsetsSize returns the byte length of the step offsets column.
func (h *frameHdr) stepOffsetsSize() int64 {
	return packedWords(int64(h.n)+1, offsetWidth(int64(h.numSteps))) * 8
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
	s := h.offsetsSize() + h.bitOffsetsSize() + h.stepOffsetsSize() + h.nodesSize() + h.codesSize() + h.stepsSize()
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
	if h.setKind() == kindPartition {
		return fmt.Errorf("core: sketch partitions cannot nest")
	}
	if h.partitioned() {
		if err := CheckPartRange(int(h.index), int(h.count), int(h.total), int64(h.lo), int64(h.hi)); err != nil {
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
	if err := p.Validate(); err != nil {
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
	// A code takes a bit at least, and under 64, and a uniform sketch's
	// owner none; this also keeps bodySize from overflowing.
	if h.numNodeBits < h.numEntries-min(h.numEntries, h.implied()) || h.numNodeBits > 64*h.numEntries {
		return fmt.Errorf("core: sketch file claims %d bits of node codes for %d entries", h.numNodeBits, h.numEntries)
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
	h.numNodeBits = uint64(f.nodeBits())
	h.flags = layoutFlags(h.kind)
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
	buf = le.AppendUint64(buf, h.numDistinct)
	return le.AppendUint64(buf, h.numNodeBits)
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
	if err := writeU64s(f.ownOffsets(&f.off).words); err != nil {
		return cw.n, err
	}
	if err := writeU64s(f.ownOffsets(&f.boff).words); err != nil {
		return cw.n, err
	}
	if err := writeU64s(f.ownOffsets(&f.soff).words); err != nil {
		return cw.n, err
	}
	// The entries' node codes start at bit 0 of the file's column: a frame
	// that owns its column from there writes the words as they are, a
	// partition's slice of a shared one — coded under the whole set's
	// count, as a partition's are — is shifted out first.
	base, e := f.offAt(0), int64(f.totalEntries())
	if err := writeU64s(bitsFrom(f.node.words, f.bitAt(0), f.nodeBits())); err != nil {
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
// consumed from data.  A file of another flavor is named as that, whatever
// its layout, before an earlier layout is named.
func parseFrameHdr(data []byte) (frameHdr, int, error) {
	le := binary.LittleEndian
	var h frameHdr
	if len(data) < 8 {
		return h, 0, fmt.Errorf("core: truncated sketch file header")
	}
	h.kind = le.Uint32(data)
	h.flags = le.Uint32(data[4:])
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
	if len(data) < pos+frameHdrSize+16 {
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
	h.numDistinct = le.Uint64(data[pos+64:])
	h.numNodeBits = le.Uint64(data[pos+72:])
	if h.flavor != 0 || h.segs != 1 {
		return h, 0, fmt.Errorf("core: sketch file holds %s sketches (flavor %d, %d lists a node); only bottom-k sketches are served", flavorName(h.flavor), h.flavor, h.segs)
	}
	// The rank-order bits are the kind's, which validate checks is one.
	kind := Kind(h.setKind())
	if want := layoutFlags(h.setKind()); h.flags&^(frameFlagBeta|frameFlagsRanked) != frameFlagsLayout || kind == KindUniform && h.flags&frameFlagsRanked != frameFlagsRanked {
		return h, 0, fmt.Errorf("core: sketch file has flags %#x, not the current layout's %#x: a file of an earlier release is rewritten with `adsconvert`", h.flags, want)
	}
	if (kind == KindWeighted || kind == KindApprox) && h.flags&frameFlagsRanked != 0 {
		return h, 0, fmt.Errorf("core: sketch file has flags %#x, not the %#x of the current layout of a %v set: only a uniform set's node codes are rank-ordered", h.flags, layoutFlags(h.setKind()), kind)
	}
	if err := h.validate(); err != nil {
		return h, 0, err
	}
	return h, pos + frameHdrSize + 16, nil
}

// frameFromHdr returns the in-memory frame, no column yet, of a validated
// header.
func frameFromHdr(h frameHdr) *Frame {
	p := h.params()
	f := &Frame{p: p, n: int(h.n), total: h.totalNodes(), by: newRanker(p)}
	f.node.total, f.node.order, f.node.k = f.total, newRankOrder(p, f.total), p.K
	f.off.w, f.boff.w, f.soff.w = offsetWidth(int64(h.numEntries)), offsetWidth(int64(h.numNodeBits)), offsetWidth(int64(h.numSteps))
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

// validateOffsets checks that the n offsets of the column what start at
// 0, ascend — strictly when strict: no sketch is empty, every one holding
// its owner at a step of its own, and its codes taking a bit an entry but
// the ones implied — and end at last, what they cover: the entries, the
// bits of node codes, or the steps.  Everything else about a version-3
// file is trusted (it is a serving-format for files the operator built).
func validateOffsets(what, of string, off *packedColumn, n, last int64, strict bool) error {
	if !off.holds(n) {
		return fmt.Errorf("core: sketch file has %s bits past its last", what)
	}
	if off.get(0) != 0 {
		return fmt.Errorf("core: sketch file %s do not start at 0", what)
	}
	prev := int64(0)
	for i := int64(1); i < n; i++ {
		o := int64(off.get(i))
		if o < prev || strict && o == prev {
			return fmt.Errorf("core: sketch file sketch %d has no %s, or its %s decrease (every sketch holds its owner)", i-1, of, what)
		}
		prev = o
	}
	if prev != last {
		return fmt.Errorf("core: sketch file %s end at %d, want %d", what, prev, last)
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
	f.boff.words = u64s(next(h.bitOffsetsSize()))
	f.soff.words = u64s(next(h.stepOffsetsSize()))
	f.node.words = u64s(next(h.nodesSize()))
	if err := validateOffsets("offsets", "entries", &f.off, int64(h.n)+1, e, true); err != nil {
		return nil, err
	}
	// What keeps every decoder inside the node stream and the steps.
	if err := validateOffsets("bit offsets", "node codes", &f.boff, int64(h.n)+1, int64(h.numNodeBits), h.implied() == 0); err != nil {
		return nil, err
	}
	if err := validateOffsets("step offsets", "steps", &f.soff, int64(h.n)+1, int64(h.numSteps), true); err != nil {
		return nil, err
	}
	if !tailClear(f.node.words, int64(h.numNodeBits)) {
		return nil, fmt.Errorf("core: sketch file has node bits past its last node code")
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
// Its owner closes it once nothing reads it any more: a served file is
// closed by the catalog's version drain, after the last query that
// acquired the version has released it.
type SketchFile struct {
	set    *Set
	mapped []byte // non-nil iff the columns view an mmap region
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
// header, offsets (OffsetBits bits each), bit offsets, step offsets, nodes
// (NodeBitsPerEntry bits an entry on average, run lengths included), then
// either step codes and the dictionary of distances they index or, where
// a dictionary would be no smaller, steps (8 bytes a distance step), then
// betas where held — every packed column rounded up to a word.
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
		{"bit offsets", h.bitOffsetsSize()},
		{"step offsets", h.stepOffsetsSize()},
		{"nodes", h.nodesSize()},
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

// NodeBitsPerEntry returns the mean length of an entry's node code, 0 for
// no entries.
func (s *SketchFile) NodeBitsPerEntry() float64 {
	return float64(s.frame().nodeBits()) / float64(max(1, s.frame().totalEntries()))
}

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
// case Close invalidates every sketch and index derived from the file).
func (s *SketchFile) Mapped() bool { return s.mapped != nil }

// Close releases the file: it unmaps the backing region, if any, after
// which every sketch, view and index derived from the file is invalid, and
// Set returns nil.  The file's owner calls it once, after the last read;
// it is not safe concurrently with reads or with another Close.  A second
// Close made after the first returns does nothing.
func (s *SketchFile) Close() error {
	m := s.mapped
	s.mapped, s.set = nil, nil
	if m == nil {
		return nil
	}
	return munmapFile(m)
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
	return &SketchFile{set: set}, nil
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
	var head [framePreambleSize + framePartHdrSize]byte
	if n, _ := io.ReadFull(fl, head[:]); !currentLayout(head[:n]) {
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
	return &SketchFile{set: set, mapped: data}, nil
}

// currentLayout reports whether the bytes begin a version-3 file of the
// layout openFrameBytes views: the preamble and, for a partition, the
// envelope, which names the set's kind.
func currentLayout(data []byte) bool {
	le := binary.LittleEndian
	if len(data) < framePreambleSize || string(data[:4]) != encodeMagic || le.Uint32(data[4:]) != EncodeVersion {
		return false
	}
	kind := le.Uint32(data[8:])
	if kind == kindPartition {
		if len(data) < framePreambleSize+framePartHdrSize {
			return false
		}
		kind = le.Uint32(data[framePreambleSize+20:])
	}
	return le.Uint32(data[12:])&^frameFlagBeta == layoutFlags(kind)
}
