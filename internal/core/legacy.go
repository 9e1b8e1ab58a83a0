package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"adsketch/internal/sketch"
)

// The legacy door.  Every sketch file this tree does not write — version
// 2, and the version-3 layouts the current one replaced a flags bit at a
// time — is read here into per-segment entry lists and frozen with
// freezeFrame, as a build's lists are: copied, never viewed in place, and
// validated like any stream.  Writing what it reads writes the current
// layout, which is all `adstool convert` does.
//
// Version 2 is the per-entry stream the writers emitted before the
// columnar frame became the file format:
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
// The retired version-3 layouts have the current header less its
// numDistinct word, then (numNodes·segs+1)×i64 offsets, and clear some of
// flags bits 1 to 3 (framecodec.go).  With bit 3 clear the nodes are
// numEntries×i32, padded to a word; with bit 2 clear the distances are
// numEntries×f64, and with it set the first bits and numSteps×f64 steps;
// with bit 1 clear numEntries×f64 ranks follow the distances.  Four were
// written — flags 0x00 before ranks were derived, then 0x02, 0x06 and 0x0e
// before distances were step-coded, node IDs packed and the columns made
// compact (the *_v3dist_*, *_v3step_* and *_v3pack_* fixtures) — and any
// combination of the three bits is read.
//
// Stored ranks are checked against the ones the frame derives, in every
// segment, and dropped.  A uniform header records the seed that derives
// them; a weighted or approximate file that stores them records none, and
// is read under the seed its reader is given (ReadSketchSetWithSeed,
// `adstool convert -seed`) or refused.

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

func pad8(n int64) int64 { return (n + 7) &^ 7 }

// freezeLegacy freezes the per-segment entry lists (node-major, as
// freezeFrame takes them) and the β column an older file was read into,
// of the nodes and set like describes, and validates every sketch.  stored
// says the lists carry the file's ranks: they are then checked against the
// ones the frame derives — from seed when the file records none.
func freezeLegacy(like *Frame, lists [][]Entry, beta []float64, stored bool, seed *uint64) (*Frame, error) {
	p := like.p
	if stored && p.Kind != KindUniform {
		if seed == nil {
			return nil, fmt.Errorf("core: the sketch file stores its ranks but records no seed, as weighted and approximate files of earlier releases do: rewrite it with `adstool convert -seed <the seed it was built with>`")
		}
		p.Seed = *seed
	}
	// freezeFrame keeps the bits of an ID its column has room for.
	for i, l := range lists {
		for j, e := range l {
			if uint32(e.Node) >= uint32(like.total) {
				return nil, fmt.Errorf("core: corrupt sketch file: ADS(%d) entry %d names node %d outside [0, %d)", like.base+int32(i/like.segs()), j, e.Node, like.total)
			}
		}
	}
	f := freezeFrame(p, like.base, like.total, lists)
	f.beta = beta
	if !stored {
		lists = nil
	}
	if err := validateDecoded(f, lists); err != nil {
		return nil, err
	}
	return f, nil
}

// readRetiredV3 reads a complete version-3 file of a retired layout, data
// starting at its magic.
func readRetiredV3(data []byte, seed *uint64) (*Set, error) {
	h, pos, err := readFrameHdr(data[8:])
	if err != nil {
		return nil, err
	}
	if err := h.validate(); err != nil {
		return nil, err
	}
	if h.flags&frameFlagCompact != 0 {
		return nil, fmt.Errorf("core: sketch file has flags %#x, a layout no release wrote", h.flags)
	}
	stored, stepped := h.flags&frameFlagDerivedRanks == 0, h.flags&frameFlagStepDists != 0
	e := int64(h.numEntries)
	nodesAt := (h.numSegs() + 1) * 8
	distsAt := nodesAt + pad8(4*e)
	if h.flags&frameFlagPackedNodes != 0 {
		distsAt = nodesAt + packedWords(e, nodeWidth(h.totalNodes()))*8
	}
	stepsAt, ranksAt := distsAt, distsAt+8*e
	if stepped {
		stepsAt = distsAt + bitWords(e)*8
		ranksAt = stepsAt + 8*int64(h.numSteps)
	}
	betasAt := ranksAt
	if stored {
		betasAt += 8 * e
	}
	size := betasAt
	if h.flags&frameFlagBeta != 0 {
		size += 8 * e
	}
	body := data[8+pos:]
	if int64(len(body)) != size {
		return nil, fmt.Errorf("core: sketch file body holds %d bytes, header implies %d", len(body), size)
	}
	le := binary.LittleEndian
	f64 := func(at int64) float64 { return math.Float64frombits(le.Uint64(body[at:])) }
	node := func(i int64) int32 { return int32(le.Uint32(body[nodesAt+4*i:])) }
	if h.flags&frameFlagPackedNodes != 0 {
		c := packedColumn{words: make([]uint64, (distsAt-nodesAt)/8), w: nodeWidth(h.totalNodes())}
		for i := range c.words {
			c.words[i] = le.Uint64(body[nodesAt+8*int64(i):])
		}
		node = func(i int64) int32 { return int32(c.get(i)) }
	}
	if le.Uint64(body) != 0 {
		return nil, fmt.Errorf("core: sketch file offsets do not start at 0")
	}
	lists := make([][]Entry, h.numSegs())
	entries := make([]Entry, e)
	var beta []float64
	if h.flags&frameFlagBeta != 0 {
		beta = make([]float64, e)
	}
	lo, step := int64(0), int64(0)
	for s := range lists {
		hi := int64(le.Uint64(body[8*int64(s+1):]))
		if hi < lo || hi > e {
			return nil, fmt.Errorf("core: sketch file offset %d is %d, outside [%d, %d]", s+1, hi, lo, e)
		}
		for i := lo; i < hi; i++ {
			x := &entries[i]
			x.Node = node(i)
			if !stepped {
				x.Dist = f64(distsAt + 8*i)
			} else {
				if body[distsAt+i/8]>>(i%8)&1 != 0 {
					step++
				} else if i == lo {
					return nil, fmt.Errorf("core: sketch file segment %d does not start a distance step", s)
				}
				if step > int64(h.numSteps) {
					return nil, fmt.Errorf("core: sketch file marks more distance steps than its header's %d", h.numSteps)
				}
				x.Dist = f64(stepsAt + 8*(step-1))
			}
			if stored {
				x.Rank = f64(ranksAt + 8*i)
			}
			if beta != nil {
				beta[i] = f64(betasAt + 8*i)
			}
		}
		lists[s], lo = entries[lo:hi:hi], hi
	}
	if lo != e {
		return nil, fmt.Errorf("core: sketch file offsets end at %d, want %d entries", lo, e)
	}
	if stepped && step != int64(h.numSteps) {
		return nil, fmt.Errorf("core: sketch file marks %d distance steps, header claims %d", step, h.numSteps)
	}
	f, err := freezeLegacy(frameFromHdr(h), lists, beta, stored, seed)
	if err != nil {
		return nil, err
	}
	return h.wrap(f), nil
}

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

// header reads a sequence of u32 (into *uint32) and u64 (into *uint64)
// header fields.
func (d *setDecoder) header(fields ...any) error {
	for _, f := range fields {
		switch p := f.(type) {
		case *uint32:
			buf, err := d.read(4)
			if err != nil {
				return err
			}
			*p = binary.LittleEndian.Uint32(buf)
		case *uint64:
			buf, err := d.read(8)
			if err != nil {
				return err
			}
			*p = binary.LittleEndian.Uint64(buf)
		default:
			panic(fmt.Sprintf("core: bad header field type %T", f))
		}
	}
	return nil
}

// readV2 reads a version-2 file after its magic and version.
func readV2(d *setDecoder, seed *uint64) (*Set, error) {
	var h frameHdr
	if err := d.header(&h.kind); err != nil {
		return nil, fmt.Errorf("core: reading sketch file kind: %w", err)
	}
	kind := h.kind
	if h.partitioned() {
		if err := d.header(&h.index, &h.count, &h.lo, &h.hi, &h.total); err != nil {
			return nil, fmt.Errorf("core: reading partition header: %w", err)
		}
		if err := h.validateEnvelope(); err != nil {
			return nil, err
		}
		if err := d.header(&kind); err != nil {
			return nil, fmt.Errorf("core: reading sketch file kind: %w", err)
		}
	}
	p := Params{Kind: Kind(kind)}
	var k, numNodes uint32
	var err error
	switch p.Kind {
	case KindUniform:
		var flavor uint32
		var baseBits uint64
		err = d.header(&k, &flavor, &p.Seed, &baseBits, &numNodes)
		p.Flavor, p.BaseB = sketch.Flavor(flavor), math.Float64frombits(baseBits)
	case KindWeighted:
		var scheme uint32
		err = d.header(&k, &scheme, &numNodes)
		p.Scheme = WeightScheme(scheme)
	case KindApprox:
		var epsBits uint64
		err = d.header(&k, &epsBits, &numNodes)
		p.Eps = math.Float64frombits(epsBits)
	case Kind(kindPartition):
		return nil, fmt.Errorf("core: sketch partitions cannot nest")
	default:
		return nil, fmt.Errorf("core: sketch file has unknown kind %d", kind)
	}
	if err != nil {
		return nil, fmt.Errorf("core: reading sketch file header: %w", err)
	}
	p.K = int(k)
	switch {
	case k > MaxK:
		return nil, fmt.Errorf("core: implausible sketch parameter k=%d", k)
	case numNodes > 1<<30:
		return nil, fmt.Errorf("core: implausible node count %d", numNodes)
	case h.partitioned() && numNodes != h.hi-h.lo:
		return nil, fmt.Errorf("core: partition claims nodes [%d, %d) but holds %d sketches", h.lo, h.hi, numNodes)
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	like := &Frame{p: p, total: int(numNodes)}
	if h.partitioned() {
		like.base, like.total = int32(h.lo), int(h.total)
	}
	// The list count is capped so a corrupted node count fails at the first
	// short read instead of provoking one huge up-front allocation.
	segs := p.segs()
	lists := make([][]Entry, 0, min(int(numNodes)*segs, maxEntryPrealloc))
	var beta []float64
	for i := 0; i < int(numNodes)*segs; i++ {
		l, err := d.entries(like.base+int32(i/segs), p.Kind == KindWeighted, &beta)
		if err != nil {
			return nil, err
		}
		lists = append(lists, l)
	}
	f, err := freezeLegacy(like, lists, beta, true, seed)
	if err != nil {
		return nil, err
	}
	return h.wrap(f), nil
}

// entries reads one length-prefixed entry list of owner's sketch — with a
// β per entry, appended to *beta, when weighted — in bounded chunks, so a
// corrupted length cannot drive a huge allocation.
func (d *setDecoder) entries(owner int32, weighted bool, beta *[]float64) ([]Entry, error) {
	var n uint32
	if err := d.header(&n); err != nil {
		return nil, fmt.Errorf("core: reading sketch of node %d: %w", owner, err)
	}
	if n > 1<<28 {
		return nil, fmt.Errorf("core: implausible entry count %d for node %d", n, owner)
	}
	size := entryWireSize
	if weighted {
		size = weightedEntryWireSize
	}
	le := binary.LittleEndian
	var out []Entry
	for remaining := int(n); remaining > 0; remaining -= maxEntryPrealloc {
		buf, err := d.read(min(remaining, maxEntryPrealloc) * size)
		if err != nil {
			return nil, fmt.Errorf("core: reading sketch of node %d: %w", owner, err)
		}
		for off := 0; off < len(buf); off += size {
			out = append(out, Entry{
				Node: int32(le.Uint32(buf[off:])),
				Dist: math.Float64frombits(le.Uint64(buf[off+4:])),
				Rank: math.Float64frombits(le.Uint64(buf[off+12:])),
			})
			if weighted {
				*beta = append(*beta, math.Float64frombits(le.Uint64(buf[off+20:])))
			}
		}
	}
	return out, nil
}
