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
// framecodec.go), all but the last less its numNodeBits word, and all but
// the last two less its numDistinct word too,
//
//	magic "ADSK" | version u32 = 3 | kind u32 | flags u32 |
//	[kind 3 only: index u32 | count u32 | lo u32 | hi u32 |
//	              total u32 | innerKind u32] |
//	k u32 | flavor u32 | seed u64 | baseB f64 | scheme u32 | segs u32 |
//	eps f64 | numNodes u64 | numEntries u64 | numSteps u64 |
//	[numDistinct u64, when flags bit 4 is set]
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
// combination of the three bits is read.  A fifth, flags 0x1e (the
// *_v3compact_* fixtures), was written before node IDs were Rice-coded:
// bits 1 to 3 set, and bit 4 — the numDistinct word, the offsets packed at
// the bits numEntries needs, and, when numDistinct > 0, the steps as codes
// packed at the bits numDistinct−1 needs into a numDistinct×f64 dictionary
// in place of numSteps×f64 steps.  A sixth, flags 0x3e (the *_v3rice_*
// fixtures), is the current layout of weighted and approximate sets and
// was that of uniform ones until their runs were coded in rank order: bit
// 5 adds the numNodeBits word and, after the offsets, (numNodes+1) bit
// offsets packed at the bits numNodeBits needs, and the nodes are
// numNodeBits bits of Rice codes — a run of m IDs of equal distance, which
// the first bits delimit, coded as its gaps xᵢ − xᵢ₋₁ − 1 (x₋₁ = −1), each
// gap>>b zero bits, a one and the b low bits, b the largest with
// m·2^b <= the set's node count.  A seventh, flags 0x7e (the *_v3rank_*
// fixtures), was a uniform set's before a gap's Rice parameter adapted to
// its run's gaps before it and the owner's code was implied: bit 6 codes a
// run's positions in the set's rank order — its nodes sorted by (rank,
// node) — ascending, below M, the k-th smallest position of the sketch's
// entries at smaller distances (the node count while there are fewer than
// k), b the largest with m·2^b <= M.  An eighth, flags 0xfe (the
// *_v3adapt_* fixtures), was a uniform set's before run lengths in the
// node stream and step offsets replaced the step bits: bit 7 implies a
// sketch's entry 0, its owner, with no code, and adapts a gap's b — the
// least with n·2^b >= a, a the sum of the run's gaps before it and
// ⌊M/(4m)⌋+1, n their count and 1, both halved as n reaches 16 — but no
// less than b₀−3, b₀ the 0x7e layout's.  Weighted and approximate sets
// were written in the 0x3e layout until then.  A ninth, flags 0x1fe for a
// uniform set and 0x13e for another kind (the *_v3runs_* fixtures), was
// written before each sketch's counts, steps and β came inline in its bit
// range (bit 9, which the current layout of every kind has, and no retired
// one): bit 8 adds, after the bit offsets, (numNodes+1) step offsets
// packed at the bits numSteps needs, drops the first bits, and leads each
// run of a sketch but its first and its last with its length m−1, Rice
// coded at the largest b <= 15 with n·2^b <= a, a the sum of the sketch's
// lengths before it and ⌊(entries−1)/(steps−1)⌋, n their count and 1, both
// halved as n reaches 16.  These layouts are frozen bytes, so this copy of
// their header cannot drift from the writers'.
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
	"slices"

	"adsketch/internal/core"
	"adsketch/internal/retired"
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
	flagCompact      = 1 << 4
	flagRiceNodes    = 1 << 5
	flagRankNodes    = 1 << 6 // a uniform file's: rank-ordered codes
	flagAdaptNodes   = 1 << 7 // a uniform file's: adapted gap parameters, implied owners
	flagRunLengths   = 1 << 8 // run lengths in the node stream, step offsets for step bits
	flagInlineLists  = 1 << 9 // a current file's; no retired one has it
	flagsCompact     = flagDerivedRanks | flagStepDists | flagPackedNodes | flagCompact
	flagsRice        = flagsCompact | flagRiceNodes
)

// currentFlags returns the flags, less β, of the current layout of a set
// of kind kind: a uniform set's node codes are rank-ordered and adapt.
func currentFlags(kind uint32) uint32 {
	if core.Kind(kind) == core.KindUniform {
		return flagsRice | flagRankNodes | flagAdaptNodes | flagRunLengths | flagInlineLists
	}
	return flagsRice | flagRunLengths | flagInlineLists
}

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
	kind := uint32(0)
	if len(data) >= 12 {
		kind = le.Uint32(data[8:])
	}
	if kind == kindPartition && len(data) >= 40 {
		kind = le.Uint32(data[36:]) // the envelope's inner kind
	}
	switch {
	case len(data) >= 8 && string(data[:4]) == magic && le.Uint32(data[4:]) == 2:
		set, err = readV2(&cursor{b: data[8:]}, seed)
	case len(data) >= 16 && string(data[:4]) == magic && le.Uint32(data[4:]) == core.EncodeVersion &&
		le.Uint32(data[12:])&^flagBeta != currentFlags(kind):
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

// widthBelow returns the bits a packed column of values below bound takes
// each: enough for bound-1, and at least 1.
func widthBelow(bound uint64) int64 {
	if bound <= 2 {
		return 1
	}
	return int64(bits.Len64(bound - 1))
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
	compact, rice, ranked, adapted := flags&flagCompact != 0, flags&flagRiceNodes != 0, flags&flagRankNodes != 0, flags&flagAdaptNodes != 0
	lengths := flags&flagRunLengths != 0
	var numDistinct, numNodeBits uint64
	if compact {
		numDistinct = c.u64()
	}
	if rice {
		numNodeBits = c.u64()
	}
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
	implied := uint64(0) // the entries with no code: an adapted file's owners
	if adapted && e >= 0 {
		implied = min(uint64(e), n)
	}
	switch {
	case c.err != nil:
		return nil, fmt.Errorf("legacy: truncated sketch file header")
	case flags&^uint32(flagsRice|flagRankNodes|flagAdaptNodes|flagRunLengths|flagBeta) != 0:
		return nil, fmt.Errorf("legacy: sketch file has unknown flags %#x", flags)
	case ranked && !rice, adapted && !ranked, ranked && p.Kind != core.KindUniform,
		lengths && (p.Kind == core.KindUniform) != adapted,
		rice && flags&^(flagBeta|flagRankNodes|flagAdaptNodes|flagRunLengths) != flagsRice,
		!rice && compact && flags&^flagBeta != flagsCompact:
		return nil, fmt.Errorf("legacy: sketch file has flags %#x, a layout no release wrote for a %v set", flags, p.Kind)
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
	// The owners are looked up by the envelope's nodes.
	case env != nil && uint64(env.hi) > total:
		return nil, fmt.Errorf("legacy: partition claims nodes [%d, %d) of a %d-node set", env.lo, env.hi, total)
	case e < 0 || e > 1<<40 || numSteps > uint64(e) || numDistinct > numSteps:
		return nil, fmt.Errorf("legacy: implausible entry count %d, or %d distance steps over %d values", e, numSteps, numDistinct)
	// A code is a bit at least; an adapted file's owners have none.
	case rice && (numNodeBits < uint64(e)-implied || numNodeBits > 64*uint64(e)):
		return nil, fmt.Errorf("legacy: sketch file claims %d bits of node codes for %d entries", numNodeBits, e)
	// A rank-ordered file is read through the order of every node of the
	// set, 12 bytes a node: a partition's envelope, which alone says how
	// many there are, may claim no more than its entries make plausible.
	case ranked && env != nil && total > max(1<<20, 64*uint64(e)):
		return nil, fmt.Errorf("legacy: a rank-ordered partition of %d entries claims a %d-node set, more than max(2^20, 64 × its entries): convert the whole set's file", e, total)
	}
	stored, stepped := flags&flagDerivedRanks == 0, flags&flagStepDists != 0
	width, offWidth, codeWidth := widthBelow(total), int64(64), widthBelow(numDistinct)
	if compact {
		offWidth = widthBelow(uint64(e) + 1)
	}
	nodesAt := ((int64(n)+1)*offWidth + 63) / 64 * 8
	distsAt := nodesAt + (4*e+7)&^7
	boffsAt := int64(-1) // the bit offsets', when the IDs are Rice-coded
	soffsAt := int64(-1) // the step offsets', when the runs' lengths are coded
	switch {
	case rice:
		boffsAt = nodesAt
		nodesAt += ((int64(n)+1)*widthBelow(numNodeBits+1) + 63) / 64 * 8
		if lengths {
			soffsAt = nodesAt
			nodesAt += ((int64(n)+1)*widthBelow(numSteps+1) + 63) / 64 * 8
		}
		distsAt = nodesAt + (int64(numNodeBits)+63)/64*8
	case flags&flagPackedNodes != 0:
		distsAt = nodesAt + (e*width+63)/64*8
	}
	stepsAt, ranksAt := distsAt, distsAt+8*e
	codesAt := int64(-1) // the step codes', when the steps are coded
	if stepped {
		if stepsAt = distsAt + (e+63)/64*8; lengths {
			stepsAt = distsAt // no step bits
		}
		ranksAt = stepsAt + 8*int64(numSteps)
		if numDistinct > 0 {
			codesAt = stepsAt
			stepsAt = codesAt + (int64(numSteps)*codeWidth+63)/64*8
			ranksAt = stepsAt + 8*int64(numDistinct)
		}
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
	// packed returns value i of the column at at packed at w < 64 bits.
	packed := func(at, i, w int64) uint64 {
		bit := i * w
		at, shift := at+bit/64*8, bit%64
		v := u64(at) >> shift
		if shift+w > 64 {
			v |= u64(at+8) << (64 - shift)
		}
		return v & (1<<w - 1)
	}
	offset := func(i int64) uint64 { return u64(8 * i) }
	if compact {
		offset = func(i int64) uint64 { return packed(0, i, offWidth) }
	}
	node := func(i int64) int32 { return int32(le.Uint32(body[nodesAt+4*i:])) }
	if flags&flagPackedNodes != 0 {
		node = func(i int64) int32 { return int32(packed(nodesAt, i, width)) }
	}
	if offset(0) != 0 {
		return nil, fmt.Errorf("legacy: sketch file offsets do not start at 0")
	}
	lists := make([][]core.Entry, n)
	entries := make([]core.Entry, e)
	var beta []float64
	if flags&flagBeta != 0 {
		beta = make([]float64, e)
	}
	var codes *riceReader
	var perm, pos []int32 // a rank-ordered file's rank order, and an adapted one's positions
	var run, earlier []uint64
	if rice {
		codes = &riceReader{body: body[nodesAt:distsAt], end: int64(numNodeBits), adapted: adapted}
	}
	if ranked {
		perm = retired.Order(p.Seed, p.BaseB, int(total))
	}
	if adapted {
		pos = make([]int32, total)
		for at, v := range perm {
			pos[v] = int32(at)
		}
	}
	lo, step := int64(0), int64(0)
	for s := range lists {
		hi := int64(offset(int64(s + 1)))
		if hi < lo || hi > e {
			return nil, fmt.Errorf("legacy: sketch file offset %d is %d, outside [%d, %d]", s+1, hi, lo, e)
		}
		if rice {
			if bit := packed(boffsAt, int64(s), widthBelow(numNodeBits+1)); int64(bit) != codes.pos {
				return nil, fmt.Errorf("legacy: sketch file sketch %d's node codes start at bit %d, not %d", s, bit, codes.pos)
			}
		}
		owner := int32(s)
		if env != nil {
			owner += int32(env.lo)
		}
		// A run-length file's runs: its step offsets' count, their lengths'
		// parameter, and how many started, ending where.
		var runs, runAt, runEnd, la, ln int64
		if lengths {
			sw := widthBelow(numSteps + 1)
			slo, shi := int64(packed(soffsAt, int64(s), sw)), int64(packed(soffsAt, int64(s+1), sw))
			if slo != step || shi <= slo || shi > int64(numSteps) {
				return nil, fmt.Errorf("legacy: sketch file sketch %d's steps are [%d, %d), not from %d in %d", s, slo, shi, step, numSteps)
			}
			runs, runEnd, la, ln = shi-slo, lo, (hi-lo-1)/max(shi-slo-1, 1), 1
		}
		for i := lo; i < hi; i++ {
			x := &entries[i]
			start := i == runEnd
			if !lengths {
				start = stepped && body[distsAt+i/8]>>(i%8)&1 != 0
			} else if start {
				m := hi - i
				switch {
				case runAt >= runs:
					return nil, fmt.Errorf("legacy: sketch file sketch %d has more runs than its %d steps", s, runs)
				case i == lo:
					m = 1
				case runAt < runs-1:
					b := 0
					for ln<<(b+1) <= la && b < 15 {
						b++
					}
					length, ok := codes.code(b)
					if !ok || length >= uint64(hi-i) {
						return nil, fmt.Errorf("legacy: sketch file sketch %d's run %d has no length its entries can hold", s, runAt)
					}
					m = int64(length) + 1
					if la, ln = la+int64(length), ln+1; ln == 16 {
						la, ln = la/2, 8
					}
				}
				runEnd, runAt = i+m, runAt+1
			}
			if adapted && i == lo { // the owner, which has no code
				x.Node, earlier, run = owner, append(earlier[:0], uint64(pos[owner])), run[:0]
			} else if rice {
				if start || i == lo+1 && adapted || i == lo {
					m := runEnd - i // the run's length: coded, or to the next step bit
					if !lengths {
						for m = 1; i+m < hi && body[distsAt+(i+m)/8]>>((i+m)%8)&1 == 0; m++ {
						}
					}
					if i == lo {
						earlier = earlier[:0]
					}
					bound := total
					if ranked && len(earlier) >= int(k) {
						bound = earlier[k-1]
					}
					if run = codes.run(run[:0], bound, m); len(run) < int(m) {
						return nil, fmt.Errorf("legacy: sketch file sketch %d's node codes run past their bits", s)
					}
					if ranked {
						earlier = append(earlier, run...)
						slices.Sort(earlier)
						for j, x := range run {
							if x >= total {
								return nil, fmt.Errorf("legacy: sketch file sketch %d codes rank-order position %d of %d", s, x, total)
							}
							run[j] = uint64(perm[x])
						}
						slices.Sort(run)
					}
				}
				x.Node, run = int32(run[0]), run[1:]
			} else {
				x.Node = node(i)
			}
			if !stepped {
				x.Dist = f64(distsAt + 8*i)
			} else {
				if start {
					step++
				} else if i == lo {
					return nil, fmt.Errorf("legacy: sketch file sketch %d does not start with a distance step", s)
				}
				if step > int64(numSteps) {
					return nil, fmt.Errorf("legacy: sketch file marks more distance steps than its header's %d", numSteps)
				}
				at := step - 1
				if codesAt >= 0 {
					if at = int64(packed(codesAt, at, codeWidth)); at >= int64(numDistinct) {
						return nil, fmt.Errorf("legacy: sketch file codes distance step %d as %d of %d values", step-1, at, numDistinct)
					}
				}
				x.Dist = f64(stepsAt + 8*at)
			}
			if stored {
				x.Rank = f64(ranksAt + 8*i)
			}
			if beta != nil {
				beta[i] = f64(betasAt + 8*i)
			}
		}
		if runAt != runs {
			return nil, fmt.Errorf("legacy: sketch file sketch %d has %d runs, its step offsets %d", s, runAt, runs)
		}
		lists[s], lo = entries[lo:hi:hi], hi
	}
	if lo != e {
		return nil, fmt.Errorf("legacy: sketch file offsets end at %d, want %d entries", lo, e)
	}
	if rice && (codes.pos != int64(numNodeBits) || packed(boffsAt, int64(n), widthBelow(numNodeBits+1)) != numNodeBits) {
		return nil, fmt.Errorf("legacy: sketch file's node codes end at bit %d, not at its %d", codes.pos, numNodeBits)
	}
	if stepped && step != int64(numSteps) {
		return nil, fmt.Errorf("legacy: sketch file marks %d distance steps, header claims %d", step, numSteps)
	}
	return freeze(p, env, int(n), lists, beta, stored, seed)
}

// riceReader reads the node codes of the layouts of flags 0x3e, 0x7e and
// 0xfe: a run of m numbers below a bound is coded as its gaps
// xᵢ − xᵢ₋₁ − 1 (x₋₁ = −1), each gap>>b zero bits, a one and the b low
// bits, b the largest with m·2^b <= the bound — or, adapted, the 0xfe
// layout's parameter, gap by gap.
type riceReader struct {
	body    []byte
	pos     int64 // the next bit
	end     int64 // the codes' length in bits
	adapted bool
}

// run appends the m numbers of a run below bound to dst, stopping short
// where the codes run out or a number outgrows an ID.
func (r *riceReader) run(dst []uint64, bound uint64, m int64) []uint64 {
	b := 0
	for uint64(m)<<(b+1) <= bound {
		b++
	}
	a, n, floor := bound/(4*uint64(m))+1, uint64(1), b-min(b, 3)
	prev := int64(-1)
	for range m {
		if r.adapted {
			for b = floor; n<<b < a; b++ {
			}
		}
		gap, ok := r.code(b)
		if a, n = a+min(gap, bound), n+1; n == 16 {
			a, n = a/2, n/2
		}
		if prev += 1 + int64(gap); !ok || gap > math.MaxInt32 || prev > math.MaxInt32 {
			break
		}
		dst = append(dst, uint64(prev))
	}
	return dst
}

// bit returns the bit at pos, and whether there is one.
func (r *riceReader) bit() (uint64, bool) {
	if r.pos >= r.end {
		return 0, false
	}
	x := uint64(r.body[r.pos/8]>>(r.pos%8)) & 1
	r.pos++
	return x, true
}

// code returns the next gap, coded at b, or false where the codes run out.
func (r *riceReader) code(b int) (uint64, bool) {
	var q uint64
	for {
		x, ok := r.bit()
		if !ok {
			return 0, false
		}
		if x == 1 {
			break
		}
		q++
	}
	gap := q << b
	for k := 0; k < b; k++ {
		x, ok := r.bit()
		if !ok {
			return 0, false
		}
		gap |= x << k
	}
	return gap, true
}
