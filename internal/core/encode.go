package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"adsketch/internal/sketch"
)

// Binary persistence for sketch sets.  Building sketches is the expensive
// step (one near-linear pass over the graph); queries are cheap.  The
// format lets a pipeline build once and serve many query processes.
//
// Version 2 covers every set kind behind one header:
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
// Versions 1 and 2 store each entry's rank.  The writers derive it and a
// uniform file's ranks are checked against its seed on load and dropped;
// weighted and approximate bodies record no seed, so theirs load as a
// stored column (see Frame).
//
// Version 1 is the legacy uniform-only format (no kind field); readers
// still accept it.  Version 3 (framecodec.go) serializes the columnar
// frame verbatim — the serving format OpenSketchFile reads with O(1)
// allocations (or maps with zero copies).  All integers are
// little-endian.  Whatever the stored version, loading produces
// frame-backed sets.

const (
	encodeMagic   = "ADSK"
	encodeVersion = 1
	// maxCodecK bounds the sketch parameter a file may claim, so a
	// corrupted header cannot drive huge per-node allocations.
	maxCodecK = 1 << 20
	// maxCodecPartitions bounds the partition count a file may claim.
	maxCodecPartitions = 1 << 20
	// EncodeVersion is the current streaming sketch file format version
	// written by the WriteTo methods.
	EncodeVersion = 2
)

// Set kinds stored in the version-2 and version-3 headers.
const (
	kindUniform uint32 = iota
	kindWeighted
	kindApprox
	kindPartition
)

// Wire sizes of one entry record.
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

// growBuf returns *buf resized to n bytes, reallocating only when the
// capacity is short — the codec's per-call scratch, reused across nodes.
func growBuf(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	return (*buf)[:n]
}

// setEncoder writes the binary format through one buffered writer with a
// single reusable scratch buffer (the codec hot path serializes every
// entry of every node; per-field binary.Write reflection is far too slow
// for multi-million-entry sets).
type setEncoder struct {
	bw    *bufio.Writer
	buf   []byte
	ranks rankScratch // the ranks the format stores are derived through it
}

func newSetEncoder(w io.Writer) *setEncoder {
	return &setEncoder{bw: bufio.NewWriter(w)}
}

func (e *setEncoder) u32(v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := e.bw.Write(b[:])
	return err
}

func (e *setEncoder) u64(v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := e.bw.Write(b[:])
	return err
}

// node writes the length-prefixed entry lists of local node v, one per
// segment, with β when the frame is weighted.
func (e *setEncoder) node(f *Frame, v int) error {
	for _, c := range f.ranked(&e.ranks, v) {
		var err error
		if f.kind == kindWeighted {
			err = e.weightedEntriesCols(c)
		} else {
			err = e.entriesCols(c)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// entriesCols writes one length-prefixed entry list from columns as a
// single buffer write.
func (e *setEncoder) entriesCols(c cols) error {
	n := c.len()
	buf := growBuf(&e.buf, 4+n*entryWireSize)
	binary.LittleEndian.PutUint32(buf, uint32(n))
	off := 4
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(buf[off:], uint32(c.node[i]))
		binary.LittleEndian.PutUint64(buf[off+4:], math.Float64bits(c.dist[i]))
		binary.LittleEndian.PutUint64(buf[off+12:], math.Float64bits(c.rankAt(i)))
		off += entryWireSize
	}
	_, err := e.bw.Write(buf)
	return err
}

// weightedEntriesCols writes one length-prefixed (entry, beta) list.
func (e *setEncoder) weightedEntriesCols(c cols) error {
	n := c.len()
	buf := growBuf(&e.buf, 4+n*weightedEntryWireSize)
	binary.LittleEndian.PutUint32(buf, uint32(n))
	off := 4
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(buf[off:], uint32(c.node[i]))
		binary.LittleEndian.PutUint64(buf[off+4:], math.Float64bits(c.dist[i]))
		binary.LittleEndian.PutUint64(buf[off+12:], math.Float64bits(c.rankAt(i)))
		binary.LittleEndian.PutUint64(buf[off+20:], math.Float64bits(c.beta[i]))
		off += weightedEntryWireSize
	}
	_, err := e.bw.Write(buf)
	return err
}

// encodeSetBody writes a set's body — kind, kind header, payloads — the
// part shared between whole-set files and the partition envelope.
func encodeSetBody(e *setEncoder, s AnySet) error {
	f, err := frameOf(s)
	if err != nil {
		return err
	}
	switch f.kind {
	case kindUniform:
		hdr := []error{
			e.u32(kindUniform),
			e.u32(uint32(f.opts.K)),
			e.u32(uint32(f.opts.Flavor)),
			e.u64(f.opts.Seed),
			e.u64(math.Float64bits(f.opts.BaseB)),
			e.u32(uint32(f.n)),
		}
		for _, err := range hdr {
			if err != nil {
				return err
			}
		}
	case kindWeighted:
		hdr := []error{
			e.u32(kindWeighted),
			e.u32(uint32(f.opts.K)),
			e.u32(uint32(f.scheme)),
			e.u32(uint32(f.n)),
		}
		for _, err := range hdr {
			if err != nil {
				return err
			}
		}
	case kindApprox:
		hdr := []error{
			e.u32(kindApprox),
			e.u32(uint32(f.opts.K)),
			e.u64(math.Float64bits(f.eps)),
			e.u32(uint32(f.n)),
		}
		for _, err := range hdr {
			if err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("core: cannot encode sketch set kind %d", f.kind)
	}
	for v := 0; v < f.n; v++ {
		if err := e.node(f, v); err != nil {
			return err
		}
	}
	return nil
}

// writeSetFile writes one whole-set file: magic, version, body.
func writeSetFile(w io.Writer, s AnySet) (int64, error) {
	cw := &countingWriter{w: w}
	e := newSetEncoder(cw)
	if _, err := e.bw.WriteString(encodeMagic); err != nil {
		return cw.n, err
	}
	if err := e.u32(EncodeVersion); err != nil {
		return cw.n, err
	}
	if err := encodeSetBody(e, s); err != nil {
		return cw.n, err
	}
	if err := e.bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// WriteTo serializes the set in the version-2 format.  It implements
// io.WriterTo; the returned count is the number of bytes written.
func (s *Set) WriteTo(w io.Writer) (int64, error) { return writeSetFile(w, s) }

// WriteTo serializes the weighted set in the version-2 format.
func (s *WeightedSet) WriteTo(w io.Writer) (int64, error) { return writeSetFile(w, s) }

// WriteTo serializes the approximate set in the version-2 format.
func (s *ApproxSet) WriteTo(w io.Writer) (int64, error) { return writeSetFile(w, s) }

// setDecoder reads the binary format through one reusable scratch buffer.
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
// boundary; frame seals the result.
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

func (a *frameAccum) frame(kind uint32, opts Options, scheme WeightScheme, eps float64, segs int, base int32) *Frame {
	f := &Frame{
		kind: kind, opts: opts, scheme: scheme, eps: eps,
		segs: segs, n: (len(a.off) - 1) / segs, base: base,
		off: a.off, node: a.node, dist: a.dist, beta: a.beta,
	}
	if a.by != nil {
		f.by = *a.by
	} else {
		f.rank = a.rank
	}
	return f
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
	case 1:
		set, err := readUniformBody(d, 0)
		return set, nil, err
	case EncodeVersion:
		kind, err := d.u32()
		if err != nil {
			return nil, nil, fmt.Errorf("core: reading sketch file kind: %w", err)
		}
		if kind == kindPartition {
			p, err := readPartitionBody(d)
			return nil, p, err
		}
		set, err := decodeSetBodyKind(d, kind, 0)
		return set, nil, err
	case frameEncodeVersion:
		return readFrameFile(d)
	default:
		return nil, nil, fmt.Errorf("core: sketch file version %d, supported versions are 1, %d and %d",
			version, EncodeVersion, frameEncodeVersion)
	}
}

// ReadSketchSet deserializes a whole sketch set written by any WriteTo
// method (or the legacy version-1 WriteSet), validating the structural
// invariants of every sketch.  The dynamic type of the result is *Set,
// *WeightedSet, or *ApproxSet according to the stored kind.  Partition
// files are refused; read those with ReadPartition (or merge them back
// with MergeSketchSets / adstool merge).
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

// ReadSketchFile reads either kind of sketch file, returning exactly one
// of a whole set or a partition — what a serving process that accepts
// both uses at startup.
func ReadSketchFile(r io.Reader) (AnySet, *Partition, error) {
	return readAny(r)
}

// decodeSetBody reads a set body (kind, kind header, payloads) with
// sketch owners offset by base — the inner payload of a partition file.
func decodeSetBody(d *setDecoder, base int32) (AnySet, error) {
	kind, err := d.u32()
	if err != nil {
		return nil, fmt.Errorf("core: reading sketch file kind: %w", err)
	}
	return decodeSetBodyKind(d, kind, base)
}

func decodeSetBodyKind(d *setDecoder, kind uint32, base int32) (AnySet, error) {
	switch kind {
	case kindUniform:
		return readUniformBody(d, base)
	case kindWeighted:
		return readWeightedBody(d, base)
	case kindApprox:
		return readApproxBody(d, base)
	case kindPartition:
		return nil, fmt.Errorf("core: sketch partitions cannot nest")
	default:
		return nil, fmt.Errorf("core: sketch file has unknown kind %d", kind)
	}
}

// readUniformBody parses the shared uniform body (everything after the
// version/kind prefix, identical in versions 1 and 2) into a frame-backed
// set.  Sketch owners are base..base+numNodes-1 (base is 0 for whole-set
// files and the node-range start for partitions).
func readUniformBody(d *setDecoder, base int32) (*Set, error) {
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
	f := acc.frame(kindUniform, o, 0, 0, segs, base)
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

func readWeightedBody(d *setDecoder, base int32) (*WeightedSet, error) {
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
	f := acc.frame(kindWeighted, Options{K: int(k)}, WeightScheme(scheme), 0, 1, base)
	if err := validateDecoded(f, &acc.memo); err != nil {
		return nil, err
	}
	return &WeightedSet{frame: f}, nil
}

func readApproxBody(d *setDecoder, base int32) (*ApproxSet, error) {
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
	f := acc.frame(kindApprox, Options{K: int(k)}, 0, eps, 1, base)
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
	if n > 0 && (a.c.node[0] != owner || a.c.dist[0] != 0) {
		return fmt.Errorf("core: approx ADS(%d) does not start with the owner at distance 0", owner)
	}
	return nil
}

// WriteSet serializes a uniform sketch set in the legacy version-1
// format.
//
// Deprecated: use (*Set).WriteTo, which writes the current versioned
// format shared by all set kinds.
func WriteSet(w io.Writer, s *Set) error {
	e := newSetEncoder(w)
	if _, err := e.bw.WriteString(encodeMagic); err != nil {
		return err
	}
	f := s.frame
	hdr := []error{
		e.u32(encodeVersion),
		e.u32(uint32(f.opts.K)),
		e.u32(uint32(f.opts.Flavor)),
		e.u64(f.opts.Seed),
		e.u64(math.Float64bits(f.opts.BaseB)),
		e.u32(uint32(f.n)),
	}
	for _, err := range hdr {
		if err != nil {
			return err
		}
	}
	for v := 0; v < f.n; v++ {
		if err := e.node(f, v); err != nil {
			return err
		}
	}
	return e.bw.Flush()
}

// ReadSet deserializes a uniform sketch set written by WriteSet or
// (*Set).WriteTo, validating every sketch's structural invariants.
//
// Deprecated: use ReadSketchSet, which restores any set kind.
func ReadSet(r io.Reader) (*Set, error) {
	set, err := ReadSketchSet(r)
	if err != nil {
		return nil, err
	}
	uniform, ok := set.(*Set)
	if !ok {
		return nil, fmt.Errorf("core: sketch file holds a %T, not a uniform set; use ReadSketchSet", set)
	}
	return uniform, nil
}
