// Package legacy reads the sketch files of earlier releases, for
// cmd/adsconvert to rewrite in the current layout.  No serving binary
// links it: they read the current layout only (internal/core), and refuse
// every other file naming adsconvert.
//
// Every file this package reads is read into per-node entry lists and
// frozen with core.FreezeLists, as a build's lists are: copied, never
// viewed in place, and validated like any stream.  Writing what it reads
// writes the current layout, which is all adsconvert does.
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
// (flavor 1) and k-partition (flavor 2) payloads repeat that per
// permutation / bucket.  Sets of those two flavors are refused, naming the
// flavor: only bottom-k sets are rewritten, as only they are served.
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
// The retired version-3 layouts have the current header (internal/core's
// framecodec.go) less its numDistinct word,
//
//	magic "ADSK" | version u32 = 3 | kind u32 | flags u32 |
//	[kind 3 only: index u32 | count u32 | lo u32 | hi u32 |
//	              total u32 | innerKind u32] |
//	k u32 | flavor u32 | seed u64 | baseB f64 | scheme u32 | segs u32 |
//	eps f64 | numNodes u64 | numEntries u64 | numSteps u64
//
// then (numNodes·segs+1)×i64 offsets, and clear some of flags bits 1 to 3.
// With bit 3 clear the nodes are numEntries×i32, padded to a word, and
// with it set packed at the bits the set's node count needs; with bit 2
// clear the distances are numEntries×f64, and with it set the first bits
// and numSteps×f64 steps; with bit 1 clear numEntries×f64 ranks follow the
// distances; with bit 0 set numEntries×f64 betas end the file.  Four were
// written — flags 0x00 before ranks were derived, then 0x02, 0x06 and 0x0e
// before distances were step-coded, node IDs packed and the columns made
// compact (the *_v3dist_*, *_v3step_* and *_v3pack_* fixtures) — and any
// combination of the three bits is read.  These layouts are frozen bytes,
// so this copy of their header cannot drift from the writers'.
//
// Stored ranks are checked against the ones the frame derives, and
// dropped.  A uniform header records the seed that derives them; a weighted
// or approximate file that stores them records none, and is read under the
// seed its reader is given (`adsconvert -seed`) or refused.
package legacy

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"adsketch/internal/core"
	"adsketch/internal/sketch"
)

// checkFlavor refuses a set whose sketches are not bottom-k, naming their
// flavor.
func checkFlavor(flavor uint32) error {
	if f := sketch.Flavor(flavor); f != sketch.BottomK {
		return fmt.Errorf("legacy: sketch file holds %v sketches (flavor %d): only bottom-k sets are served, so only they are rewritten", f, flavor)
	}
	return nil
}

const (
	magic         = "ADSK"
	kindPartition = 3

	flagBeta         = 1 << 0
	flagDerivedRanks = 1 << 1
	flagStepDists    = 1 << 2
	flagPackedNodes  = 1 << 3
	flagCompact      = 1 << 4 // the current layout's; no retired one has it
	flagsLayout      = flagDerivedRanks | flagStepDists | flagPackedNodes | flagCompact
)

// Read reads a sketch file of any layout a release wrote — version 2, a
// retired version-3 layout, or the current one, which core.ReadSketchSet
// reads — whole set or partition, validating every sketch.  seed, when
// non-nil, derives the ranks of a file that stores them but records no
// seed, and must equal the seed any other file records.
func Read(r io.Reader, seed *uint64) (*core.Set, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("legacy: reading sketch file: %w", err)
	}
	var set *core.Set
	le := binary.LittleEndian
	switch {
	case len(data) >= 8 && string(data[:4]) == magic && le.Uint32(data[4:]) == 2:
		set, err = readV2(&cursor{b: data[8:]}, seed)
	case len(data) >= 16 && string(data[:4]) == magic && le.Uint32(data[4:]) == core.EncodeVersion &&
		le.Uint32(data[12:])&^flagBeta != flagsLayout:
		set, err = readRetiredV3(data, seed)
	default:
		set, err = core.ReadSketchSet(bytes.NewReader(data))
	}
	if err != nil {
		return nil, err
	}
	if seed != nil && set.Params().Seed != *seed {
		return nil, fmt.Errorf("legacy: seed %d given, but the sketch file records seed %d", *seed, set.Params().Seed)
	}
	return set, nil
}

// cursor reads the little-endian fields of a file held in memory; past its
// end every read yields zero and sets err.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) take(n int) []byte {
	if c.err != nil || len(c.b) < n {
		c.err = io.ErrUnexpectedEOF
		return make([]byte, n)
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

func (c *cursor) u32() uint32  { return binary.LittleEndian.Uint32(c.take(4)) }
func (c *cursor) u64() uint64  { return binary.LittleEndian.Uint64(c.take(8)) }
func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

// envelope is a partition file's place in its split.
type envelope struct {
	index, count, lo, hi, total uint32
}

func (c *cursor) envelope() envelope {
	return envelope{index: c.u32(), count: c.u32(), lo: c.u32(), hi: c.u32(), total: c.u32()}
}

// freeze freezes the per-node entry lists and the β column read from a file
// of n sketches — the nodes env places, or a whole set when env is nil —
// under p.  stored says the lists carry the file's ranks: they are then
// checked against the ones the frame derives, from seed when the file
// records none.
func freeze(p core.Params, env *envelope, n int, lists [][]core.Entry, beta []float64, stored bool, seed *uint64) (*core.Set, error) {
	if stored && p.Kind != core.KindUniform {
		if seed == nil {
			return nil, fmt.Errorf("legacy: the sketch file stores its ranks but records no seed, as weighted and approximate files of earlier releases do: rewrite it with `adsconvert -seed <the seed it was built with>`")
		}
		p.Seed = *seed
	}
	index, count, total := 0, 0, n
	if env != nil {
		if env.count == 0 {
			return nil, fmt.Errorf("legacy: partition %d of a 0-way split", env.index)
		}
		index, count, total = int(env.index), int(env.count), int(env.total)
	}
	set, err := core.FreezeLists(p, index, count, total, lists, beta, stored)
	if err != nil {
		return nil, fmt.Errorf("legacy: corrupt sketch file: %w", err)
	}
	if env != nil && (set.Lo() != int32(env.lo) || set.Hi() != int32(env.hi)) {
		return nil, fmt.Errorf("legacy: partition %d/%d claims nodes [%d, %d): a %d-way split of %d nodes puts it at [%d, %d)",
			env.index, env.count, env.lo, env.hi, env.count, env.total, set.Lo(), set.Hi())
	}
	return set, nil
}

// readV2 reads a version-2 file after its magic and version.
func readV2(c *cursor, seed *uint64) (*core.Set, error) {
	kind := c.u32()
	var env *envelope
	if kind == kindPartition {
		e := c.envelope()
		env, kind = &e, c.u32()
	}
	p := core.Params{Kind: core.Kind(kind)}
	var k, flavor, numNodes uint32
	switch p.Kind {
	case core.KindUniform:
		k, flavor, p.Seed, p.BaseB, numNodes = c.u32(), c.u32(), c.u64(), c.f64(), c.u32()
	case core.KindWeighted:
		k, p.Scheme, numNodes = c.u32(), core.WeightScheme(c.u32()), c.u32()
	case core.KindApprox:
		k, p.Eps, numNodes = c.u32(), c.f64(), c.u32()
	case kindPartition:
		return nil, fmt.Errorf("legacy: sketch partitions cannot nest")
	default:
		return nil, fmt.Errorf("legacy: sketch file has unknown kind %d", kind)
	}
	if c.err != nil {
		return nil, fmt.Errorf("legacy: reading sketch file header: %w", c.err)
	}
	if err := checkFlavor(flavor); err != nil {
		return nil, err
	}
	p.K = int(k)
	switch {
	case k > core.MaxK:
		return nil, fmt.Errorf("legacy: implausible sketch parameter k=%d", k)
	case numNodes > 1<<30:
		return nil, fmt.Errorf("legacy: implausible node count %d", numNodes)
	case env != nil && numNodes != env.hi-env.lo:
		return nil, fmt.Errorf("legacy: partition claims nodes [%d, %d) but holds %d sketches", env.lo, env.hi, numNodes)
	}
	size := 4 + 8 + 8 // node, dist, rank
	if p.Kind == core.KindWeighted {
		size += 8 // beta
	}
	var base int32
	if env != nil {
		base = int32(env.lo)
	}
	// Every count is checked against the bytes left before it is allocated
	// for, so a corrupted one fails instead of provoking a huge allocation.
	var lists [][]core.Entry
	var beta []float64
	for i := 0; i < int(numNodes); i++ {
		owner := base + int32(i)
		n := int(c.u32())
		if c.err == nil && n > len(c.b)/size {
			c.err = io.ErrUnexpectedEOF
		}
		if c.err != nil {
			return nil, fmt.Errorf("legacy: reading sketch of node %d: %w", owner, c.err)
		}
		l := make([]core.Entry, n)
		for j := range l {
			l[j] = core.Entry{Node: int32(c.u32()), Dist: c.f64(), Rank: c.f64()}
			if p.Kind == core.KindWeighted {
				beta = append(beta, c.f64())
			}
		}
		lists = append(lists, l)
	}
	return freeze(p, env, int(numNodes), lists, beta, true, seed)
}

// readRetiredV3 reads a complete version-3 file of a retired layout, data
// starting at its magic.
func readRetiredV3(data []byte, seed *uint64) (*core.Set, error) {
	c := &cursor{b: data[8:]}
	kind, flags := c.u32(), c.u32()
	var env *envelope
	if kind == kindPartition {
		e := c.envelope()
		env, kind = &e, c.u32()
	}
	p := core.Params{Kind: core.Kind(kind)}
	k, flavor := c.u32(), c.u32()
	p.Seed, p.BaseB = c.u64(), c.f64()
	scheme, segs := c.u32(), c.u32()
	p.Eps = c.f64()
	n, e, numSteps := c.u64(), int64(c.u64()), c.u64()
	p.K, p.Scheme = int(k), core.WeightScheme(scheme)
	total := n
	if env != nil {
		total = uint64(env.total)
	}
	if c.err == nil {
		if err := checkFlavor(flavor); err != nil {
			return nil, err
		}
	}
	switch {
	case c.err != nil:
		return nil, fmt.Errorf("legacy: truncated sketch file header")
	case flags&^uint32(flagsLayout|flagBeta) != 0:
		return nil, fmt.Errorf("legacy: sketch file has unknown flags %#x", flags)
	case flags&flagCompact != 0:
		return nil, fmt.Errorf("legacy: sketch file has flags %#x, a layout no release wrote", flags)
	case kind == kindPartition:
		return nil, fmt.Errorf("legacy: sketch partitions cannot nest")
	case (flags&flagBeta != 0) != (p.Kind == core.KindWeighted):
		return nil, fmt.Errorf("legacy: sketch file beta column mismatch (kind %v, flags %#x)", p.Kind, flags)
	case k > core.MaxK || segs != 1:
		return nil, fmt.Errorf("legacy: sketch file claims k=%d and %d entry lists a node, want 1", k, segs)
	case env != nil && uint64(env.hi)-uint64(env.lo) != n:
		return nil, fmt.Errorf("legacy: partition claims nodes [%d, %d) but holds %d sketches", env.lo, env.hi, n)
	// The bounds that keep the column sizes below from overflowing.
	case n > 1<<30 || total > 1<<30:
		return nil, fmt.Errorf("legacy: implausible node count %d (of %d)", n, total)
	case e < 0 || e > 1<<40 || numSteps > uint64(e):
		return nil, fmt.Errorf("legacy: implausible entry count %d or %d distance steps", e, numSteps)
	}
	stored, stepped := flags&flagDerivedRanks == 0, flags&flagStepDists != 0
	width := int64(1)
	if total > 2 {
		width = int64(bits.Len64(total - 1))
	}
	nodesAt := (int64(n) + 1) * 8
	distsAt := nodesAt + (4*e+7)&^7
	if flags&flagPackedNodes != 0 {
		distsAt = nodesAt + (e*width+63)/64*8
	}
	stepsAt, ranksAt := distsAt, distsAt+8*e
	if stepped {
		stepsAt = distsAt + (e+63)/64*8
		ranksAt = stepsAt + 8*int64(numSteps)
	}
	betasAt := ranksAt
	if stored {
		betasAt += 8 * e
	}
	size := betasAt
	if flags&flagBeta != 0 {
		size += 8 * e
	}
	body := c.b
	if int64(len(body)) != size {
		return nil, fmt.Errorf("legacy: sketch file body holds %d bytes, header implies %d", len(body), size)
	}
	le := binary.LittleEndian
	u64 := func(at int64) uint64 { return le.Uint64(body[at:]) }
	f64 := func(at int64) float64 { return math.Float64frombits(u64(at)) }
	node := func(i int64) int32 { return int32(le.Uint32(body[nodesAt+4*i:])) }
	if flags&flagPackedNodes != 0 {
		node = func(i int64) int32 {
			bit := i * width
			at, shift := nodesAt+bit/64*8, bit%64
			v := u64(at) >> shift
			if shift+width > 64 {
				v |= u64(at+8) << (64 - shift)
			}
			return int32(v & (1<<width - 1))
		}
	}
	if u64(0) != 0 {
		return nil, fmt.Errorf("legacy: sketch file offsets do not start at 0")
	}
	lists := make([][]core.Entry, n)
	entries := make([]core.Entry, e)
	var beta []float64
	if flags&flagBeta != 0 {
		beta = make([]float64, e)
	}
	lo, step := int64(0), int64(0)
	for s := range lists {
		hi := int64(u64(8 * int64(s+1)))
		if hi < lo || hi > e {
			return nil, fmt.Errorf("legacy: sketch file offset %d is %d, outside [%d, %d]", s+1, hi, lo, e)
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
					return nil, fmt.Errorf("legacy: sketch file sketch %d does not start with a distance step", s)
				}
				if step > int64(numSteps) {
					return nil, fmt.Errorf("legacy: sketch file marks more distance steps than its header's %d", numSteps)
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
		return nil, fmt.Errorf("legacy: sketch file offsets end at %d, want %d entries", lo, e)
	}
	if stepped && step != int64(numSteps) {
		return nil, fmt.Errorf("legacy: sketch file marks %d distance steps, header claims %d", step, numSteps)
	}
	return freeze(p, env, int(n), lists, beta, stored, seed)
}
