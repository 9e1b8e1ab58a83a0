package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"
	"unsafe"

	"adsketch/internal/sketch"
)

// Version-3 sketch files: the on-disk layout is the in-memory frame
// layout.  After a fixed little-endian header come the raw columns —
// offsets, packed nodes, the distance step code (and betas for weighted
// sets) — every one a whole number of 8-byte words:
//
//	magic "ADSK" | version u32 = 3 | kind u32 | flags u32 |
//	[kind 3 only: index u32 | count u32 | lo u32 | hi u32 |
//	              total u32 | innerKind u32] |
//	k u32 | flavor u32 | seed u64 | baseB f64 | scheme u32 | segs u32 |
//	eps f64 | numNodes u64 | numEntries u64 | numSteps u64 |
//	offsets (numNodes*segs+1)×i64 |
//	nodes ceil(numEntries·w/64)×u64, when flags bit 3 is set —
//	    else nodes numEntries×i32 | pad |
//	first ceil(numEntries/64)×u64 | steps numSteps×f64,
//	    when flags bit 2 is set — else dists numEntries×f64 |
//	[ranks numEntries×f64, unless flags bit 1 is set] |
//	[betas numEntries×f64, when flags bit 0 is set]
//
// so a file is header + 8·(numNodes·segs+1) + 8·ceil(numEntries·w/64) +
// 8·ceil(numEntries/64) + 8·numSteps bytes, plus 8·numEntries of betas
// when weighted.
//
// Flags bit 3 says the node IDs are bit-packed (nodepack.go): entry i's ID
// is bits [i·w, (i+1)·w) of the nodes column — bit b of the column being
// bit b%64 of word b/64, counted from the least significant — where
// w = max(1, bitlen(total−1)) and total is the node count of the whole
// set: numNodes, or the envelope's total in a partition file.  The width
// is derived, never stored, so equal entries are equal bytes; the bits
// past numEntries·w are zero.  Every writer sets the bit.  A file without
// it stores 32 bits an ID and is packed, in one pass, when it is opened;
// writing it back writes it packed.  A reader from before the bit refuses
// a file that has it ("unknown flags"), as it must: it would take the
// packed column for a 32-bit one.
//
// Flags bit 2 says the distances are step-coded (stepcode.go): bit i of
// first — bit i%64 of word i/64, counted from the least significant — is
// set where entry i's distance differs from its predecessor's in the
// segment, always at a segment start and never past numEntries; steps
// holds one distance per set bit, so numSteps (the header word that used
// to be reserved, and is 0 without the bit) is the popcount of first.
// The code is canonical — steps ascend strictly within a segment — so
// equal entries are equal bytes.  Every writer sets the bit.  A file
// without it stores a distance per entry and is step-coded, in one pass,
// when it is opened; writing it back writes it step-coded.
//
// Flags bit 1 says the ranks are derived: the file has no rank column,
// and its header's seed (recorded for every kind) re-derives them.  Every
// file written since ranks became derived sets it.  A file without it was
// written before: it opens the same way with its stored column viewed in
// place and used instead of derivation (its weighted and approximate
// headers never recorded a seed), and keeps that column when written
// back.
//
// Encoding is therefore near-memcpy, and decoding a trusted file is
// O(columns): validate the header, the body size it implies, the offsets'
// monotonicity, the step bits against the step count, and that no node or
// step bit is set past the last entry, then view the columns in place.
// What the openers do not check is inside the columns — an ID at or above
// total, entries out of order, a non-canonical step — which is the stream
// readers' (ReadSketchSet, ReadPartition, ReadSketchFile) to refuse.
// OpenSketchFile reads the file once and performs O(1) allocations per
// set; MmapSketchFile maps it (on linux) so even the read is deferred to
// page faults — a worker serving a prebuilt shard file starts in
// microseconds.  Files written by version 2 remain
// readable everywhere and are converted to frames on load.

// EncodeVersion is the sketch file format version: the one every writer
// emits (the WriteTo methods, WriteSketchSetV3 / WritePartitionV3) and
// OpenSketchFile / MmapSketchFile open zero-copy.
const EncodeVersion = 3

const (
	framePreambleSize = 16 // magic, version, kind, flags
	framePartHdrSize  = 24 // index, count, lo, hi, total, innerKind
	frameHdrSize      = 64 // k .. reserved

	frameFlagBeta         = 1 << 0
	frameFlagDerivedRanks = 1 << 1 // no rank column: ranks derive from the header's seed
	frameFlagStepDists    = 1 << 2 // distances are step-coded: first bits + numSteps steps
	frameFlagPackedNodes  = 1 << 3 // node IDs are packed at the width the set's node count fixes
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
	numSteps      uint64 // 0 unless flags has frameFlagStepDists
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
	s := int64(framePreambleSize + frameHdrSize)
	if h.partitioned() {
		s += framePartHdrSize
	}
	return s
}

// storesRanks reports whether the file carries a rank column: it was
// written before ranks were derived.
func (h *frameHdr) storesRanks() bool { return h.flags&frameFlagDerivedRanks == 0 }

// stepCoded reports whether the file holds its distances as a step code
// rather than one per entry.
func (h *frameHdr) stepCoded() bool { return h.flags&frameFlagStepDists != 0 }

// packedNodes reports whether the file holds its node IDs bit-packed
// rather than as 32-bit integers.
func (h *frameHdr) packedNodes() bool { return h.flags&frameFlagPackedNodes != 0 }

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
	e := int64(h.numEntries)
	if h.packedNodes() {
		return packedWords(e, nodeWidth(h.totalNodes())) * 8
	}
	return pad8(e * 4)
}

// numSegs returns the offsets-array segment count.
func (h *frameHdr) numSegs() int64 { return int64(h.n) * int64(h.segs) }

// bodySize returns the total byte length of the columns.
func (h *frameHdr) bodySize() int64 {
	e := int64(h.numEntries)
	s := (h.numSegs()+1)*8 + h.nodesSize()
	if h.stepCoded() {
		s += (bitWords(e) + int64(h.numSteps)) * 8
	} else {
		s += e * 8
	}
	if h.storesRanks() {
		s += e * 8
	}
	if h.flags&frameFlagBeta != 0 {
		s += e * 8
	}
	return s
}

func pad8(n int64) int64 { return (n + 7) &^ 7 }

// validate checks every header field against the format's invariants,
// so a corrupted file errors out before any column is touched.
func (h *frameHdr) validate() error {
	if h.flags&^uint32(frameFlagBeta|frameFlagDerivedRanks|frameFlagStepDists|frameFlagPackedNodes) != 0 {
		return fmt.Errorf("core: sketch file has unknown flags %#x", h.flags)
	}
	switch h.setKind() {
	case kindUniform, kindWeighted, kindApprox:
	case kindPartition:
		return fmt.Errorf("core: sketch partitions cannot nest")
	default:
		return fmt.Errorf("core: sketch file has unknown kind %d", h.setKind())
	}
	if h.partitioned() {
		switch {
		case h.count < 1 || h.count > maxCodecPartitions:
			return fmt.Errorf("core: implausible partition count %d", h.count)
		case h.index >= h.count:
			return fmt.Errorf("core: partition index %d out of range [0, %d)", h.index, h.count)
		case h.total > 1<<30:
			return fmt.Errorf("core: implausible node count %d", h.total)
		case h.lo > h.hi || h.hi > h.total:
			return fmt.Errorf("core: partition node range [%d, %d) outside [0, %d)", h.lo, h.hi, h.total)
		}
		if uint64(h.hi-h.lo) != h.n {
			return fmt.Errorf("core: partition claims nodes [%d, %d) but holds %d sketches", h.lo, h.hi, h.n)
		}
	}
	if h.k < 1 || h.k > maxCodecK {
		return fmt.Errorf("core: implausible sketch parameter k=%d", h.k)
	}
	if h.n > 1<<30 {
		return fmt.Errorf("core: implausible node count %d", h.n)
	}
	wantSegs := uint32(1)
	switch h.setKind() {
	case kindUniform:
		switch sketch.Flavor(h.flavor) {
		case sketch.BottomK:
		case sketch.KMins, sketch.KPartition:
			wantSegs = h.k
		default:
			return fmt.Errorf("core: sketch file has unknown flavor %d", h.flavor)
		}
		if h.baseB != 0 && !(h.baseB > 1) {
			return fmt.Errorf("core: sketch file has invalid base %g", h.baseB)
		}
	case kindWeighted:
		if h.scheme != uint32(ExponentialWeights) && h.scheme != uint32(PriorityWeights) {
			return fmt.Errorf("core: sketch file has unknown weight scheme %d", h.scheme)
		}
	case kindApprox:
		if h.eps < 0 || math.IsNaN(h.eps) || math.IsInf(h.eps, 1) {
			return fmt.Errorf("core: sketch file has invalid epsilon %g", h.eps)
		}
	}
	if h.segs != wantSegs {
		return fmt.Errorf("core: sketch file claims %d segments per node, want %d", h.segs, wantSegs)
	}
	hasBeta := h.flags&frameFlagBeta != 0
	if hasBeta != (h.setKind() == kindWeighted) {
		return fmt.Errorf("core: sketch file beta column mismatch (kind %d, flags %#x)", h.setKind(), h.flags)
	}
	if h.numEntries > 1<<40 {
		return fmt.Errorf("core: implausible entry count %d", h.numEntries)
	}
	// At most one step an entry; this also keeps bodySize from overflowing.
	if h.numSteps > h.numEntries || !h.stepCoded() && h.numSteps != 0 {
		return fmt.Errorf("core: sketch file claims %d distance steps for %d entries (flags %#x)", h.numSteps, h.numEntries, h.flags)
	}
	return nil
}

// headerOf extracts the version-3 header of a frame (and optional
// partition envelope) for writing.
func headerOf(f *Frame, part *Partition) frameHdr {
	h := frameHdr{
		kind:       f.kind,
		k:          uint32(f.opts.K),
		flavor:     uint32(f.opts.Flavor),
		seed:       f.opts.Seed,
		baseB:      f.opts.BaseB,
		scheme:     uint32(f.scheme),
		segs:       uint32(f.segs),
		eps:        f.eps,
		n:          uint64(f.n),
		numEntries: uint64(f.totalEntries()),
	}
	slo, shi := f.stepRange()
	h.numSteps = uint64(shi - slo)
	h.flags |= frameFlagStepDists | frameFlagPackedNodes
	if f.kind == kindWeighted {
		h.flags |= frameFlagBeta
	}
	if f.rank == nil {
		h.flags |= frameFlagDerivedRanks
	}
	if part != nil {
		h.innerKind = f.kind
		h.kind = kindPartition
		h.index = uint32(part.Index())
		h.count = uint32(part.Count())
		h.lo = uint32(part.Lo())
		h.hi = uint32(part.Hi())
		h.total = uint32(part.TotalNodes())
	}
	return h
}

// appendHeader renders the header (preamble through reserved field).
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
	return buf
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

// writeFrameV3 writes a frame (and optional partition envelope) in the
// version-3 format.  On little-endian hosts every column is one Write of
// the slice's underlying bytes — near-memcpy.
func writeFrameV3(w io.Writer, f *Frame, part *Partition) (int64, error) {
	h := headerOf(f, part)
	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	if _, err := bw.Write(h.appendHeader(make([]byte, 0, h.headerSize()))); err != nil {
		return cw.n, err
	}
	// Offsets are rebased to 0 so a sliced partition frame round-trips to
	// the same bytes as an independently loaded one.
	base := f.off[0]
	e := f.totalEntries()
	var scratch []byte
	writeI64s := func(vals []int64, rebase int64) error {
		if nativeLittleEndian && rebase == 0 {
			return writeRaw(bw, i64Bytes(vals))
		}
		buf := growBuf(&scratch, len(vals)*8)
		for i, v := range vals {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(v-rebase))
		}
		return writeRaw(bw, buf)
	}
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
	if err := writeI64s(f.off, base); err != nil {
		return cw.n, err
	}
	// The entries' node bits and step bits start at bit 0 of the file's
	// columns: a frame that owns its columns from there writes the words as
	// they are, a partition's slice of shared ones is shifted out first.
	width := int64(f.width())
	if err := writeU64s(bitsFrom(f.node.words, base*width, int64(e)*width)); err != nil {
		return cw.n, err
	}
	if err := writeU64s(bitsFrom(f.first, base, int64(e))); err != nil {
		return cw.n, err
	}
	slo, _ := f.stepRange()
	if err := writeF64s(f.step[slo : slo+int64(h.numSteps)]); err != nil {
		return cw.n, err
	}
	if f.rank != nil {
		if err := writeF64s(f.rank[base : base+int64(e)]); err != nil {
			return cw.n, err
		}
	}
	if h.flags&frameFlagBeta != 0 {
		if err := writeF64s(f.beta[base : base+int64(e)]); err != nil {
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

// WriteSketchSetV3 serializes a whole sketch set in the version-3
// columnar format.  The estimates computed from the reloaded set are
// bit-for-bit those of the original.
func WriteSketchSetV3(w io.Writer, s AnySet) (int64, error) {
	f, err := frameOf(s)
	if err != nil {
		return 0, err
	}
	return writeFrameV3(w, f, nil)
}

// WritePartitionV3 serializes one partition in the version-3 columnar
// format (the partition envelope followed by the frame columns) — the
// shard file an mmap-serving worker opens.
func WritePartitionV3(w io.Writer, p *Partition) (int64, error) {
	f, err := frameOf(p.Set())
	if err != nil {
		return 0, err
	}
	return writeFrameV3(w, f, p)
}

// Raw byte views of column slices, used on little-endian hosts where the
// in-memory representation equals the wire representation.

func i64Bytes(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

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

func viewI64s(b []byte, n int64) []int64 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)
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

func viewI32s(b []byte, n int64) []int32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
}

// parseFrameHdr parses and validates the fixed header of a version-3
// file.  data starts at the kind field (magic and version already
// consumed); it returns the header and the number of header bytes
// consumed from data.
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
	if len(data) < pos+frameHdrSize {
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
	pos += frameHdrSize
	if err := h.validate(); err != nil {
		return h, 0, err
	}
	return h, pos, nil
}

// frameFromHdr assembles the in-memory frame for a validated header.
func frameFromHdr(h frameHdr) *Frame {
	f := &Frame{
		kind:  h.setKind(),
		opts:  Options{K: int(h.k), Seed: h.seed},
		segs:  int(h.segs),
		n:     int(h.n),
		total: h.totalNodes(),
	}
	f.node.w = nodeWidth(f.total)
	switch f.kind {
	case kindUniform:
		f.opts.Flavor, f.opts.BaseB = sketch.Flavor(h.flavor), h.baseB
	case kindWeighted:
		f.scheme = WeightScheme(h.scheme)
	case kindApprox:
		f.eps = h.eps
	}
	if h.storesRanks() {
		f.rank = []float64{} // the readers view or read the column into it
	} else {
		f.by = newRanker(f.kind, f.opts, f.scheme)
	}
	if h.partitioned() {
		f.base = int32(h.lo)
	}
	return f
}

// validateOffsets checks that the offsets column is monotonic and covers
// exactly the entry columns; everything else about a version-3 file is
// trusted (it is a serving-format for files the operator built).
func validateOffsets(off []int64, numEntries int64) error {
	if len(off) == 0 || off[0] != 0 {
		return fmt.Errorf("core: sketch file offsets do not start at 0")
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("core: sketch file offsets decrease at %d", i)
		}
	}
	if off[len(off)-1] != numEntries {
		return fmt.Errorf("core: sketch file offsets end at %d, want %d entries", off[len(off)-1], numEntries)
	}
	return nil
}

// validateSteps checks what licenses indexing the step column by the
// popcount of the bits: as many set bits (marked) as steps, none past the
// last entry, and one at the start of every non-empty segment.
func validateSteps(off []int64, first []uint64, numEntries, marked, numSteps int64) error {
	if marked != numSteps {
		return fmt.Errorf("core: sketch file marks %d distance steps, header claims %d", marked, numSteps)
	}
	if !tailClear(first, numEntries) {
		return fmt.Errorf("core: sketch file marks distance steps past its last entry")
	}
	for i := 0; i+1 < len(off); i++ {
		if off[i] < off[i+1] && !bitAt(first, off[i]) {
			return fmt.Errorf("core: sketch file segment %d does not start a distance step", i)
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
func openFrameBytes(data []byte) (AnySet, *Partition, error) {
	if len(data) < framePreambleSize {
		return nil, nil, fmt.Errorf("core: truncated sketch file")
	}
	if string(data[:4]) != encodeMagic {
		return nil, nil, fmt.Errorf("core: not a sketch file (magic %q)", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != EncodeVersion {
		return nil, nil, fmt.Errorf("core: sketch file version %d, want %d", v, EncodeVersion)
	}
	h, consumed, err := parseFrameHdr(data[8:])
	if err != nil {
		return nil, nil, err
	}
	body := data[8+consumed:]
	if int64(len(body)) != h.bodySize() {
		return nil, nil, fmt.Errorf("core: sketch file body holds %d bytes, header implies %d", len(body), h.bodySize())
	}
	f := frameFromHdr(h)
	nSegs := h.numSegs()
	e := int64(h.numEntries)
	zeroCopy := nativeLittleEndian && aligned8(body)
	// The body-size check above is what licenses every slice below.
	next := func(n int64) []byte {
		b := body[:n]
		body = body[n:]
		return b
	}
	offB := next((nSegs + 1) * 8)
	nodeB := next(h.nodesSize())
	var firstB, stepB, distB []byte
	if h.stepCoded() {
		firstB, stepB = next(bitWords(e)*8), next(int64(h.numSteps)*8)
	} else {
		distB = next(e * 8)
	}
	var rankB, betaB []byte
	if h.storesRanks() {
		rankB = next(e * 8)
	}
	if h.flags&frameFlagBeta != 0 {
		betaB = next(e * 8)
	}
	var dist []float64 // a file from before distances were step-coded
	var ids []int32    // a file from before node IDs were packed
	if zeroCopy {
		f.off = viewI64s(offB, nSegs+1)
		if h.packedNodes() {
			f.node.words = viewU64s(nodeB, int64(len(nodeB)/8))
		} else {
			ids = viewI32s(nodeB, e)
		}
		f.first = viewU64s(firstB, int64(len(firstB)/8))
		f.step = viewF64s(stepB, int64(len(stepB)/8))
		dist = viewF64s(distB, int64(len(distB)/8))
		if len(rankB) > 0 {
			f.rank = viewF64s(rankB, e)
		}
		if betaB != nil {
			f.beta = viewF64s(betaB, e)
		}
	} else {
		le := binary.LittleEndian
		f.off = make([]int64, nSegs+1)
		for i := range f.off {
			f.off[i] = int64(le.Uint64(offB[i*8:]))
		}
		decodeU64s := func(b []byte) []uint64 {
			out := make([]uint64, len(b)/8)
			for i := range out {
				out[i] = le.Uint64(b[i*8:])
			}
			return out
		}
		if h.packedNodes() {
			f.node.words = decodeU64s(nodeB)
		} else {
			ids = make([]int32, e)
			for i := range ids {
				ids[i] = int32(le.Uint32(nodeB[i*4:]))
			}
		}
		decodeF64s := func(b []byte) []float64 {
			out := make([]float64, len(b)/8)
			for i := range out {
				out[i] = math.Float64frombits(le.Uint64(b[i*8:]))
			}
			return out
		}
		f.first = decodeU64s(firstB)
		f.step = decodeF64s(stepB)
		dist = decodeF64s(distB)
		if len(rankB) > 0 {
			f.rank = decodeF64s(rankB)
		}
		if betaB != nil {
			f.beta = decodeF64s(betaB)
		}
	}
	if err := validateOffsets(f.off, e); err != nil {
		return nil, nil, err
	}
	if h.packedNodes() {
		if !tailClear(f.node.words, e*int64(f.width())) {
			return nil, nil, fmt.Errorf("core: sketch file has node bits past its last entry")
		}
	} else if f.node, err = packColumn(ids, f.total); err != nil {
		return nil, nil, err
	}
	if h.stepCoded() {
		if err := validateSteps(f.off, f.first, e, f.setSteps(f.first, f.step), int64(h.numSteps)); err != nil {
			return nil, nil, err
		}
	} else {
		f.setSteps(stepCode(f.off, dist))
	}
	set, err := setFromFrame(f)
	if err != nil {
		return nil, nil, err
	}
	if !h.partitioned() {
		return set, nil, nil
	}
	return nil, &Partition{
		index: int(h.index),
		count: int(h.count),
		lo:    int32(h.lo),
		hi:    int32(h.hi),
		total: int(h.total),
		set:   set,
	}, nil
}

// readFrameStream reads a version-3 file from a stream whose magic and
// version readAny has consumed.  The stream is read to its end before
// anything is parsed, so allocation follows the bytes that arrived, never
// a header's claim: into one buffer of size bytes when the caller knows
// the stream is a file of that size (the file system's word, not the
// data's), by doubling otherwise.  openFrameBytes parses them, and —
// unlike the file openers, which trust what the operator built — every
// sketch is then validated.
func readFrameStream(r io.Reader, size int64) (AnySet, *Partition, error) {
	// ReadFrom keeps bytes.MinRead free while it reads: with that much
	// slack a file of the stated size never grows the buffer.
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	buf.Write(binary.LittleEndian.AppendUint32([]byte(encodeMagic), EncodeVersion))
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, nil, fmt.Errorf("core: reading sketch file: %w", err)
	}
	set, part, err := openFrameBytes(buf.Bytes())
	if err != nil {
		return nil, nil, err
	}
	inner := set
	if part != nil {
		inner = part.set
	}
	f, _ := frameOf(inner) // openFrameBytes produces one of frameOf's three kinds
	var ranks rankScratch
	if err := validateDecoded(f, &ranks); err != nil {
		return nil, nil, err
	}
	return set, part, nil
}

// SketchFile is an opened sketch file: exactly one of a whole set or a
// partition, plus the backing memory when the file was opened zero-copy.
//
// Release of the backing memory is reference-counted, so an mmap'd file
// can be swapped out from under live traffic without ever unmapping
// pages a query is still reading: every reader that may outlive the
// owner brackets its reads with Retain / Release, and Close — the
// owner's release — only marks the file draining.  The munmap happens
// when the last reference drops, whichever call that is.
type SketchFile struct {
	set     AnySet
	part    *Partition
	version int
	mapped  []byte // non-nil iff the columns view an mmap region
	// The flags a version-3 file was opened under, which may describe an
	// older layout than the frame is held in; onDisk is false for a file
	// that was streamed in.
	storedFlags uint32
	onDisk      bool

	// refs counts live references: the opener's (dropped by Close) plus
	// one per outstanding Retain.  The reference that drops it to zero
	// unmaps.  A non-positive count means fully released.
	refs   atomic.Int64
	closed atomic.Bool // the opener's reference has been dropped
}

// newSketchFile assembles an opened file holding the opener's single
// reference.
func newSketchFile(set AnySet, part *Partition, version int, mapped []byte) *SketchFile {
	s := &SketchFile{set: set, part: part, version: version, mapped: mapped}
	s.refs.Store(1)
	return s
}

// newFrameFile is newSketchFile for the version-3 file data that
// openFrameBytes has accepted; it keeps the flags the file was opened
// under.
func newFrameFile(set AnySet, part *Partition, data, mapped []byte) *SketchFile {
	s := newSketchFile(set, part, EncodeVersion, mapped)
	s.storedFlags, s.onDisk = binary.LittleEndian.Uint32(data[12:]), true
	return s
}

// Set returns the whole set, or nil for a partition file.
func (s *SketchFile) Set() AnySet { return s.set }

// Partition returns the partition, or nil for a whole-set file.
func (s *SketchFile) Partition() *Partition { return s.part }

// Version returns the codec version the file was stored in (2 or
// EncodeVersion).
func (s *SketchFile) Version() int { return s.version }

// frame returns the frame of the file's set or partition.
func (s *SketchFile) frame() *Frame {
	set := s.set
	if s.part != nil {
		set = s.part.set
	}
	f, _ := frameOf(set) // every opener produces one of frameOf's three kinds
	return f
}

// ColumnSize is the byte cost of one part of a version-3 file.
type ColumnSize struct {
	Name  string
	Bytes int64
}

// ColumnBytes lists what each part of the file costs when written in the
// current layout, in file order: header, offsets, nodes (NodeBits bits an
// entry, rounded up to a word), step bits, steps (8 bytes a distance
// step), then ranks and betas where held.  A file opened from an older
// layout is held — and so reported — packed and step-coded;
// StoredColumnBytes reports it as it is on disk.
func (s *SketchFile) ColumnBytes() []ColumnSize {
	h := headerOf(s.frame(), s.part)
	return h.columns()
}

// StoredColumnBytes lists what each part of the file costs on disk, in
// file order, when that is not ColumnBytes: for a version-3 file opened
// from an older layout.  It returns nil otherwise (a version-2 file has no
// columns).
func (s *SketchFile) StoredColumnBytes() []ColumnSize {
	h := headerOf(s.frame(), s.part)
	if !s.onDisk || s.storedFlags == h.flags {
		return nil
	}
	h.flags = s.storedFlags
	if !h.stepCoded() {
		h.numSteps = 0
	}
	return h.columns()
}

// columns lists the parts of a file with this header, in file order.
func (h *frameHdr) columns() []ColumnSize {
	e := int64(h.numEntries)
	out := []ColumnSize{
		{"header", h.headerSize()},
		{"offsets", (h.numSegs() + 1) * 8},
		{"nodes", h.nodesSize()},
	}
	if h.stepCoded() {
		out = append(out, ColumnSize{"step bits", bitWords(e) * 8}, ColumnSize{"steps", int64(h.numSteps) * 8})
	} else {
		out = append(out, ColumnSize{"distances", e * 8})
	}
	if h.storesRanks() {
		out = append(out, ColumnSize{"ranks", e * 8})
	}
	if h.flags&frameFlagBeta != 0 {
		out = append(out, ColumnSize{"betas", e * 8})
	}
	return out
}

// NodeBits returns the bits an entry's node ID takes in the node column
// as the current layout writes it: what the set's node count needs.
func (s *SketchFile) NodeBits() int { return int(s.frame().width()) }

// RanksStored reports whether the file was written before ranks were
// derived, and so is served from its stored rank column; DeriveRanks
// upgrades it.
func (s *SketchFile) RanksStored() bool { return s.frame().rank != nil }

// DeriveRanks drops the stored rank column of a file for which
// RanksStored, after checking that every stored rank is bit-equal to the
// one derived in its place — so no estimate moves — and is a no-op
// otherwise.  A uniform file derives from its header's seed; the weighted
// and approximate files of that time recorded none, and derive from seed.
// The first entry that disagrees is returned as an error and the file
// stays as it was.  Writing the file afterwards writes it rank-free.
func (s *SketchFile) DeriveRanks(seed uint64) error {
	old := s.frame()
	if old.rank == nil {
		return nil
	}
	f := old.slice(0, old.n) // the same columns, without the ranks
	f.rank = nil
	if f.kind != kindUniform {
		f.opts.Seed = seed
	}
	f.by = newRanker(f.kind, f.opts, f.scheme)
	var ranks rankScratch
	for v := 0; v < f.n; v++ {
		lo, _ := f.span(v)
		for _, c := range f.ranked(&ranks, v) {
			for i, r := range c.rank {
				if stored := old.rank[lo]; stored != r {
					return fmt.Errorf("core: sketch of node %d, entry %d (node %d): stored rank %g, seed %d derives %g",
						f.owner(v), i, c.node[i], stored, f.opts.Seed, r)
				}
				lo++
			}
		}
	}
	set, err := setFromFrame(f)
	if err != nil {
		return err
	}
	if s.part != nil {
		p := *s.part
		p.set = set
		s.part = &p
	} else {
		s.set = set
	}
	return nil
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
	s.set, s.part = nil, nil
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

// OpenSketchFile opens a sketch file.  Version-3 files — everything the
// writers emit — are read in one call and their columns viewed in place:
// O(1) allocations per set on little-endian hosts, and no per-sketch
// validation (the stream readers do that).  Version-2 files are decoded
// through the streaming reader (and converted to frames on load) without
// holding the raw file in memory alongside the decoded set.
func OpenSketchFile(path string) (*SketchFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var head [8]byte
	if _, err := io.ReadFull(f, head[:]); err == nil && isFrameFile(head[:]) {
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		data := make([]byte, st.Size())
		if _, err := f.ReadAt(data, 0); err != nil {
			return nil, fmt.Errorf("core: reading %s: %w", path, err)
		}
		set, part, err := openFrameBytes(data)
		if err != nil {
			return nil, err
		}
		return newFrameFile(set, part, data, nil), nil
	}
	// Not a v3 file (or too short to tell): stream-decode from the start;
	// the reader produces the precise error for garbage input.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	set, part, err := readAny(f)
	if err != nil {
		return nil, err
	}
	return newSketchFile(set, part, int(binary.LittleEndian.Uint32(head[4:])), nil), nil
}

// MmapSketchFile opens a version-3 sketch file by mapping it into memory:
// no column is read until it is queried, so a worker serving a prebuilt
// shard starts in near-constant time regardless of file size.  On
// platforms without mmap support — or for version-2 files, which need
// decoding anyway — it falls back to OpenSketchFile.
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
	var head [8]byte
	if _, err := io.ReadFull(fl, head[:]); err != nil || !isFrameFile(head[:]) {
		return OpenSketchFile(path)
	}
	data, err := mmapFile(fl, int(st.Size()))
	if err != nil {
		return nil, fmt.Errorf("core: mmap %s: %w", path, err)
	}
	set, part, err := openFrameBytes(data)
	if err != nil {
		munmapFile(data)
		return nil, err
	}
	return newFrameFile(set, part, data, data), nil
}

// isFrameFile reports whether the bytes begin a version-3 file.
func isFrameFile(data []byte) bool {
	return len(data) >= 8 && string(data[:4]) == encodeMagic &&
		binary.LittleEndian.Uint32(data[4:]) == EncodeVersion
}
