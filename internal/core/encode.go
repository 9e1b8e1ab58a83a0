package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"adsketch/internal/sketch"
)

// The kind-agnostic set interface (AnySet, frameOf, setFromFrame), the
// stream readers over it, and the read-only decoder of version-2 files.
// Everything this tree writes is version 3 (framecodec.go), which has one
// parser, openFrameBytes; the stream readers here hand it the bytes and
// then validate every sketch.
//
// Version 2 is the per-entry stream the writers emitted before the
// columnar frame became the file format.  It is decoded, never written:
//
//	magic "ADSK" | version u32 = 2 | kind u32 |
//	kind-specific header | per-node payloads
//
// Uniform (kind 0):  k u32 | flavor u32 | seed u64 | baseB f64 |
// numNodes u32, then per node the flavor payload.  Bottom-k payload:
// entry count u32, then (node i32, dist f64, rank f64) triples; k-mins
// and k-partition payloads repeat that per permutation / bucket.
//
// Weighted (kind 1):  k u32 | scheme u32 | numNodes u32, then per node:
// entry count u32 and (node i32, dist f64, rank f64, beta f64) quads.
//
// Approximate (kind 2):  k u32 | eps f64 | numNodes u32, then per node
// the bottom-k entry payload.
//
// Partition (kind 3):  the partition header — index u32 | count u32 |
// lo u32 | hi u32 | totalNodes u32 — followed by the inner set's body
// (inner kind u32, kind header, payloads) holding the sketches of global
// nodes lo..hi-1 of a totalNodes-node set split into count node-range
// shards.  Partitions do not nest.
//
// Version 2 stores each entry's rank.  A uniform file's ranks are checked
// against its seed on load and dropped; weighted and approximate bodies
// record no seed, so theirs load as a stored column (see Frame) until
// SketchFile.DeriveRanks is given the seed.  All integers are
// little-endian.  Whatever the stored version, loading produces
// frame-backed sets.

const (
	encodeMagic = "ADSK"
	// v2EncodeVersion is the version number of the files the decoder in
	// this file reads.
	v2EncodeVersion = 2
	// maxCodecK bounds the sketch parameter a file may claim, so a
	// corrupted header cannot drive huge per-node allocations.
	maxCodecK = 1 << 20
	// maxCodecPartitions bounds the partition count a file may claim.
	maxCodecPartitions = 1 << 20
)

// Set kinds stored in the version-2 and version-3 headers.
const (
	kindUniform uint32 = iota
	kindWeighted
	kindApprox
	kindPartition
)

// Wire sizes of one version-2 entry record.
const (
	entryWireSize         = 4 + 8 + 8     // node, dist, rank
	weightedEntryWireSize = 4 + 8 + 8 + 8 // node, dist, rank, beta
	// maxEntryPrealloc caps up-front allocation per length field, so a
	// corrupted count cannot allocate gigabytes before the payload read
	// fails; longer payloads grow incrementally in chunks of this many
	// entries.
	maxEntryPrealloc = 4096
)

// AnySet is the kind-agnostic view of a sketch set that the codec can
// persist and restore: *Set, *WeightedSet, or *ApproxSet.
type AnySet interface {
	NumNodes() int
	K() int
	SketchOf(v int32) Sketch
	TotalEntries() int
	WriteTo(w io.Writer) (int64, error)
}

var (
	_ AnySet = (*Set)(nil)
	_ AnySet = (*WeightedSet)(nil)
	_ AnySet = (*ApproxSet)(nil)
)

// frameOf returns the columnar frame backing any of the three set kinds.
func frameOf(s AnySet) (*Frame, error) {
	switch x := s.(type) {
	case *Set:
		return x.frame, nil
	case *WeightedSet:
		return x.frame, nil
	case *ApproxSet:
		return x.frame, nil
	default:
		return nil, fmt.Errorf("core: cannot encode sketch set type %T", s)
	}
}

// MemoryOf reports what serving a set holds in memory (heap, or mapping
// for an mmap'd file): frame is its columns — offsets, packed nodes,
// distance step code, β — and index the HIP index arena its first query
// builds, 0 until then.  Both are 0 for a set that is not frame-backed.
func MemoryOf(s AnySet) (frame, index int64) {
	f, err := frameOf(s)
	if err != nil {
		return 0, 0
	}
	return f.bytes(), f.indexBytes()
}

// setFromFrame wraps a decoded frame in the set type matching its kind.
func setFromFrame(f *Frame) (AnySet, error) {
	switch f.kind {
	case kindUniform:
		return &Set{frame: f}, nil
	case kindWeighted:
		return &WeightedSet{frame: f}, nil
	case kindApprox:
		return &ApproxSet{frame: f}, nil
	default:
		return nil, fmt.Errorf("core: sketch file has unknown kind %d", f.kind)
	}
}

// growBuf returns *buf resized to n bytes, reallocating only when the
// capacity is short — the codec's per-call scratch, reused across nodes.
func growBuf(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

// WriteTo serializes the set in the version-3 format, exactly as
// WriteSketchSetV3 does.  It implements io.WriterTo; the returned count is
// the number of bytes written.
func (s *Set) WriteTo(w io.Writer) (int64, error) { return writeFrameV3(w, s.frame, nil) }

// WriteTo serializes the weighted set in the version-3 format.
func (s *WeightedSet) WriteTo(w io.Writer) (int64, error) { return writeFrameV3(w, s.frame, nil) }

// WriteTo serializes the approximate set in the version-3 format.
func (s *ApproxSet) WriteTo(w io.Writer) (int64, error) { return writeFrameV3(w, s.frame, nil) }

// setDecoder reads the version-2 format through one reusable scratch
// buffer.
type setDecoder struct {
	r   io.Reader
	buf []byte
}

func newSetDecoder(r io.Reader) *setDecoder {
	return &setDecoder{r: bufio.NewReaderSize(r, 1<<16)}
}

// read returns the next n bytes in the shared scratch buffer; the result
// is only valid until the next decoder call.
func (d *setDecoder) read(n int) ([]byte, error) {
	buf := growBuf(&d.buf, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func (d *setDecoder) u32() (uint32, error) {
	buf, err := d.read(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf), nil
}

func (d *setDecoder) u64() (uint64, error) {
	buf, err := d.read(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf), nil
}

// header reads a sequence of u32 (into *uint32) and u64 (into *uint64)
// header fields.
func (d *setDecoder) header(fields ...any) error {
	for _, f := range fields {
		switch p := f.(type) {
		case *uint32:
			v, err := d.u32()
			if err != nil {
				return err
			}
			*p = v
		case *uint64:
			v, err := d.u64()
			if err != nil {
				return err
			}
			*p = v
		default:
			panic(fmt.Sprintf("core: bad header field type %T", f))
		}
	}
	return nil
}

// frameAccum accumulates decoded entries directly into growing frame
// columns, so the v2 decode path builds the columnar frame without an
// intermediate per-node entry slice.  closeSeg records a segment
// boundary; frame seals the result, which is where the plain offset, node
// and distance columns the body is decoded into are packed and step-coded.
//
// The format stores a rank per entry.  A uniform body records the seed
// that derives it, so the decoded rank is checked against by and dropped;
// weighted and approximate bodies record none, so theirs (by == nil) are
// kept as the frame's stored column.
type frameAccum struct {
	off  []int64
	node []int32
	dist []float64
	beta []float64
	rank []float64
	by   *ranker
	memo rankScratch
}

func newFrameAccum(segHint int, by *ranker) *frameAccum {
	return &frameAccum{off: make([]int64, 1, segHint+1), rank: []float64{}, by: by}
}

func (a *frameAccum) closeSeg() { a.off = append(a.off, int64(len(a.node))) }

// wholeSet is the total a version-2 body that is no partition's is decoded
// under: its own node count.
const wholeSet = -1

// frame seals the accumulated columns as nodes base... of a total-node set
// (wholeSet: of the nodes accumulated), packing the node IDs and
// step-coding the distances as it does.
func (a *frameAccum) frame(kind uint32, opts Options, scheme WeightScheme, eps float64, segs int, base int32, total int) (*Frame, error) {
	f := &Frame{
		kind: kind, opts: opts, scheme: scheme, eps: eps,
		segs: segs, n: (len(a.off) - 1) / segs, base: base, total: total,
		beta: a.beta,
	}
	if total == wholeSet {
		f.total = f.n
	}
	var err error
	if f.node, err = packColumn(a.node, f.total); err != nil {
		return nil, fmt.Errorf("core: corrupt sketch file: %w", err)
	}
	if f.off, err = packOffsets(a.off, int64(len(a.node))); err != nil {
		return nil, fmt.Errorf("core: corrupt sketch file: %w", err)
	}
	f.setSteps(stepCode(&f.off, int64(len(a.off)-1), a.dist))
	if a.by != nil {
		f.by = *a.by
	} else {
		f.rank = a.rank
	}
	return f, nil
}

// entriesInto reads one length-prefixed entry list — permutation perm of
// owner's sketch, with a β per entry when weighted — into the
// accumulator, decoding in bounded chunks so a corrupted length cannot
// drive a huge allocation (column growth is amortized append, never an
// up-front claim).
func (d *setDecoder) entriesInto(owner int32, perm int, weighted bool, a *frameAccum) error {
	n, err := d.u32()
	if err != nil {
		return fmt.Errorf("core: reading sketch of node %d: %w", owner, err)
	}
	if n > 1<<28 {
		return fmt.Errorf("core: implausible entry count %d for node %d", n, owner)
	}
	size := entryWireSize
	if weighted {
		size = weightedEntryWireSize
	}
	for remaining := int(n); remaining > 0; {
		chunk := remaining
		if chunk > maxEntryPrealloc {
			chunk = maxEntryPrealloc
		}
		buf, err := d.read(chunk * size)
		if err != nil {
			return fmt.Errorf("core: reading sketch of node %d: %w", owner, err)
		}
		start := len(a.node)
		for off := 0; off < len(buf); off += size {
			a.node = append(a.node, int32(binary.LittleEndian.Uint32(buf[off:])))
			a.dist = append(a.dist, math.Float64frombits(binary.LittleEndian.Uint64(buf[off+4:])))
			a.rank = append(a.rank, math.Float64frombits(binary.LittleEndian.Uint64(buf[off+12:])))
			if weighted {
				a.beta = append(a.beta, math.Float64frombits(binary.LittleEndian.Uint64(buf[off+20:])))
			}
		}
		if a.by != nil {
			// Check the chunk's ranks against the seed, and drop them.
			want := a.memo.grow(chunk)
			a.memo.derive(want, a.by, perm, a.node[start:], nil)
			for i, r := range a.rank {
				if r != want[i] {
					return fmt.Errorf("core: corrupt sketch file: sketch of node %d stores rank %g for node %d, its seed derives %g",
						owner, r, a.node[start+i], want[i])
				}
			}
			a.rank = a.rank[:0]
		}
		remaining -= chunk
	}
	a.closeSeg()
	return nil
}

// readAny parses any sketch file — whole set or partition — and returns
// exactly one of the two.
func readAny(r io.Reader) (AnySet, *Partition, error) {
	d := newSetDecoder(r)
	magic, err := d.read(4)
	if err != nil {
		return nil, nil, fmt.Errorf("core: reading sketch file magic: %w", err)
	}
	if string(magic) != encodeMagic {
		return nil, nil, fmt.Errorf("core: not a sketch file (magic %q)", magic)
	}
	version, err := d.u32()
	if err != nil {
		return nil, nil, fmt.Errorf("core: reading sketch file version: %w", err)
	}
	switch version {
	case v2EncodeVersion:
		kind, err := d.u32()
		if err != nil {
			return nil, nil, fmt.Errorf("core: reading sketch file kind: %w", err)
		}
		if kind == kindPartition {
			p, err := readPartitionBody(d)
			return nil, p, err
		}
		set, err := decodeSetBodyKind(d, kind, 0, wholeSet)
		return set, nil, err
	case EncodeVersion:
		// A regular file says how much is coming; anything else is read as
		// it arrives.
		var size int64
		if f, ok := r.(*os.File); ok {
			if st, err := f.Stat(); err == nil && st.Mode().IsRegular() {
				size = st.Size()
			}
		}
		return readFrameStream(d.r, size)
	default:
		return nil, nil, fmt.Errorf("core: sketch file version %d, supported versions are %d and %d",
			version, v2EncodeVersion, EncodeVersion)
	}
}

// ReadSketchSet deserializes a whole sketch set written by any WriteTo
// method (or by the version-2 writers of earlier releases), validating the
// structural invariants of every sketch — unlike OpenSketchFile, which
// trusts the file.  The dynamic type of the result is *Set, *WeightedSet,
// or *ApproxSet according to the stored kind.  Partition files are
// refused; read those with ReadPartition (or merge them back with
// MergeSketchSets / adstool merge).
func ReadSketchSet(r io.Reader) (AnySet, error) {
	set, part, err := readAny(r)
	if err != nil {
		return nil, err
	}
	if part != nil {
		return nil, fmt.Errorf("core: file holds partition %d of a %d-way sketch set split; use ReadPartition, or merge the partitions", part.Index(), part.Count())
	}
	return set, nil
}

// ReadSketchFile reads either kind of sketch file from a stream,
// validating every sketch like ReadSketchSet, and returns exactly one of a
// whole set or a partition.
func ReadSketchFile(r io.Reader) (AnySet, *Partition, error) {
	return readAny(r)
}

// decodeSetBody reads a set body (kind, kind header, payloads) with
// sketch owners offset by base in a set of total nodes — the inner payload
// of a partition file.
func decodeSetBody(d *setDecoder, base int32, total int) (AnySet, error) {
	kind, err := d.u32()
	if err != nil {
		return nil, fmt.Errorf("core: reading sketch file kind: %w", err)
	}
	return decodeSetBodyKind(d, kind, base, total)
}

func decodeSetBodyKind(d *setDecoder, kind uint32, base int32, total int) (AnySet, error) {
	switch kind {
	case kindUniform:
		return readUniformBody(d, base, total)
	case kindWeighted:
		return readWeightedBody(d, base, total)
	case kindApprox:
		return readApproxBody(d, base, total)
	case kindPartition:
		return nil, fmt.Errorf("core: sketch partitions cannot nest")
	default:
		return nil, fmt.Errorf("core: sketch file has unknown kind %d", kind)
	}
}

// readUniformBody parses the uniform body (everything after the
// version/kind prefix) into a frame-backed set.  Sketch owners are
// base..base+numNodes-1 of a total-node set (0 and wholeSet for whole-set
// files, the envelope's node-range start and total for partitions).
func readUniformBody(d *setDecoder, base int32, total int) (*Set, error) {
	var k, flavor, numNodes uint32
	var seed, baseBits uint64
	if err := d.header(&k, &flavor, &seed, &baseBits, &numNodes); err != nil {
		return nil, fmt.Errorf("core: reading sketch file header: %w", err)
	}
	o := Options{
		K:      int(k),
		Flavor: sketch.Flavor(flavor),
		Seed:   seed,
		BaseB:  math.Float64frombits(baseBits),
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	if k > maxCodecK {
		return nil, fmt.Errorf("core: implausible sketch parameter k=%d", k)
	}
	if numNodes > 1<<30 {
		return nil, fmt.Errorf("core: implausible node count %d", numNodes)
	}
	segs := 1
	switch o.Flavor {
	case sketch.BottomK:
	case sketch.KMins, sketch.KPartition:
		segs = o.K
	default:
		return nil, fmt.Errorf("core: sketch file has unknown flavor %d", flavor)
	}
	// Decode straight into growing frame columns; the segment-count hint
	// is capped so a corrupted node count fails at the first short read
	// instead of provoking one huge up-front allocation.
	by := newRanker(kindUniform, o, 0)
	acc := newFrameAccum(minInt(int(numNodes)*segs, maxEntryPrealloc), &by)
	for v := uint32(0); v < numNodes; v++ {
		owner := base + int32(v)
		for s := 0; s < segs; s++ {
			if err := d.entriesInto(owner, s, false, acc); err != nil {
				return nil, err
			}
		}
	}
	f, err := acc.frame(kindUniform, o, 0, 0, segs, base, total)
	if err != nil {
		return nil, err
	}
	if err := validateDecoded(f, &acc.memo); err != nil {
		return nil, err
	}
	return &Set{frame: f}, nil
}

// validateDecoded checks the structural invariants of every sketch of a
// decoded frame.
func validateDecoded(f *Frame, s *rankScratch) error {
	for v := 0; v < f.n; v++ {
		if err := f.validate(s, v, nil); err != nil {
			return fmt.Errorf("core: corrupt sketch file: %w", err)
		}
	}
	return nil
}

func readWeightedBody(d *setDecoder, base int32, total int) (*WeightedSet, error) {
	var k, scheme, numNodes uint32
	if err := d.header(&k, &scheme, &numNodes); err != nil {
		return nil, fmt.Errorf("core: reading sketch file header: %w", err)
	}
	if k < 1 || k > maxCodecK {
		return nil, fmt.Errorf("core: implausible sketch parameter k=%d", k)
	}
	if scheme != uint32(ExponentialWeights) && scheme != uint32(PriorityWeights) {
		return nil, fmt.Errorf("core: sketch file has unknown weight scheme %d", scheme)
	}
	if numNodes > 1<<30 {
		return nil, fmt.Errorf("core: implausible node count %d", numNodes)
	}
	acc := newFrameAccum(minInt(int(numNodes), maxEntryPrealloc), nil)
	for v := uint32(0); v < numNodes; v++ {
		if err := d.entriesInto(base+int32(v), 0, true, acc); err != nil {
			return nil, err
		}
	}
	f, err := acc.frame(kindWeighted, Options{K: int(k)}, WeightScheme(scheme), 0, 1, base, total)
	if err != nil {
		return nil, err
	}
	if err := validateDecoded(f, &acc.memo); err != nil {
		return nil, err
	}
	return &WeightedSet{frame: f}, nil
}

func readApproxBody(d *setDecoder, base int32, total int) (*ApproxSet, error) {
	var k, numNodes uint32
	var epsBits uint64
	if err := d.header(&k, &epsBits, &numNodes); err != nil {
		return nil, fmt.Errorf("core: reading sketch file header: %w", err)
	}
	eps := math.Float64frombits(epsBits)
	if k < 1 || k > maxCodecK {
		return nil, fmt.Errorf("core: implausible sketch parameter k=%d", k)
	}
	if eps < 0 || math.IsNaN(eps) || math.IsInf(eps, 1) {
		return nil, fmt.Errorf("core: sketch file has invalid epsilon %g", eps)
	}
	if numNodes > 1<<30 {
		return nil, fmt.Errorf("core: implausible node count %d", numNodes)
	}
	acc := newFrameAccum(minInt(int(numNodes), maxEntryPrealloc), nil)
	for v := uint32(0); v < numNodes; v++ {
		if err := d.entriesInto(base+int32(v), 0, false, acc); err != nil {
			return nil, err
		}
	}
	f, err := acc.frame(kindApprox, Options{K: int(k)}, 0, eps, 1, base, total)
	if err != nil {
		return nil, err
	}
	if err := validateDecoded(f, &acc.memo); err != nil {
		return nil, err
	}
	return &ApproxSet{frame: f}, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
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
