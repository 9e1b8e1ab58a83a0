// Package retired writes sketch files in the version-3 layouts that
// earlier releases wrote and that the current readers refuse — the one
// writer of each, shared by the tests of the readers that refuse them
// (internal/core) and of the one that reads them (internal/legacy), which
// also derives the rank order of a rank-ordered file here (Order).  It
// imports neither, so both can: a writer takes a file of the current
// layout, for its header, and the set's entry lists, β included, for every
// column.
//
// The layouts, by the flags they carry (bit 0, β, as the set has it):
//
//	Ranks    0x00  ranks stored, a distance and a 32-bit ID an entry, 64-bit offsets
//	PerEntry 0x02  ranks derived
//	Wide     0x06  distances step-coded
//	Plain    0x0e  IDs packed at the bits the node count needs
//	Compact  0x1e  packed offsets, the numDistinct word, dictionary-coded steps
//	Rice     0x3e  IDs Rice-coded per run of equal distance below the node
//	               count, with the numNodeBits word and bit offsets —
//	               retired for uniform sets when their runs came to be
//	               coded in rank order, for weighted and approximate ones
//	               when run lengths replaced the step bits
//	RankOrdered
//	         0x7e  a uniform set's runs coded as rank-order positions below
//	               their bottom-k bound, one Rice parameter a run and the
//	               owner's code included — retired when the parameters came
//	               to adapt gap by gap and the owner's code to be implied
//	Adaptive 0xfe  a uniform set's, so adapted — retired when run lengths
//	               in the node stream and step offsets replaced the step
//	               bits (flags bit 8, every kind)
//	RunLengths
//	         0x1fe a uniform set's, 0x13e another kind's: run lengths in
//	               the node stream, step offsets in place of the step bits —
//	               retired when each sketch's counts, steps and β came to be
//	               inline in its bit range (flags bit 9)
//
// The first four have no numDistinct or numNodeBits word.  A weighted or
// approximate file that stores its ranks (Ranks) records no seed.  Every
// layout from Compact on codes its steps through a dictionary of their
// distinct values iff that is strictly fewer bytes than a float a step.
package retired

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"

	"adsketch/internal/rank"
)

// Entry is one entry of a sketch, as the retired layouts store it: β is a
// weighted set's node weight of the entry's node, and zero otherwise.
type Entry struct {
	Node             int32
	Dist, Rank, Beta float64
}

const (
	flagBeta         = 1 << 0
	flagDerivedRanks = 1 << 1
	flagStepDists    = 1 << 2
	flagPackedNodes  = 1 << 3
	flagCompact      = 1 << 4
	flagRiceNodes    = 1 << 5
	flagRankNodes    = 1 << 6
	flagAdaptNodes   = 1 << 7
	flagRunLengths   = 1 << 8
	flagInlineLists  = 1 << 9
	flagsRanked      = flagRankNodes | flagAdaptNodes
	flagsNew         = flagsRanked | flagRunLengths | flagInlineLists // what the current layout has that a writer here clears

	kindUniform   = 0
	kindPartition = 3
)

var le = binary.LittleEndian

// current is the header of a file of the current layout.
type current struct {
	data        []byte
	hdr         int // the header's bytes through numSteps
	kind, flags uint32
	n, e, steps uint64
	total       uint64
}

func parse(data []byte) current {
	c := current{data: data, hdr: 16 + 64, kind: le.Uint32(data[8:]), flags: le.Uint32(data[12:])}
	if c.kind == kindPartition {
		c.hdr += 24
		c.kind = le.Uint32(data[16+20:])
		c.total = uint64(le.Uint32(data[16+16:]))
	}
	c.n, c.e, c.steps = le.Uint64(data[c.hdr-24:]), le.Uint64(data[c.hdr-16:]), le.Uint64(data[c.hdr-8:])
	if c.total == 0 && le.Uint32(data[8:]) != kindPartition {
		c.total = c.n
	}
	return c
}

// offsets returns the packed column of the lists' entry offsets.
func offsets(lists [][]Entry, e uint64) []byte {
	offs := []uint64{0}
	for _, l := range lists {
		offs = append(offs, offs[len(offs)-1]+uint64(len(l)))
	}
	return pack(offs, width(e+1))
}

// stepsOf returns the lists' distance steps, list after list, and the end
// of each list's.
func stepsOf(lists [][]Entry) (steps []float64, ends []uint64) {
	ends = []uint64{0}
	for _, l := range lists {
		for j, x := range l {
			if j == 0 || x.Dist != l[j-1].Dist {
				steps = append(steps, x.Dist)
			}
		}
		ends = append(ends, uint64(len(steps)))
	}
	return steps, ends
}

// stepColumn returns the step column of the lists, codes and dictionary
// where that is strictly fewer bytes than a float a step, raw otherwise,
// and the dictionary's size, 0 for raw steps.
func stepColumn(lists [][]Entry) ([]byte, uint64) {
	steps, _ := stepsOf(lists)
	dict := slices.Clone(steps)
	slices.Sort(dict)
	dict = slices.Compact(dict)
	d, s := uint64(len(dict)), uint64(len(steps))
	var out []byte
	if d == 0 || slices.ContainsFunc(dict, math.IsNaN) || d+uint64(words(s, width(d)))/8 >= s {
		for _, x := range steps {
			out = le.AppendUint64(out, math.Float64bits(x))
		}
		return out, 0
	}
	codes := make([]uint64, len(steps))
	for j, x := range steps {
		codes[j] = uint64(slices.Index(dict, x))
	}
	out = pack(codes, width(d))
	for _, x := range dict {
		out = le.AppendUint64(out, math.Float64bits(x))
	}
	return out, d
}

// betas returns a weighted set's β column, and nothing for another kind.
func (c *current) betas(lists [][]Entry) []byte {
	var out []byte
	if c.flags&flagBeta != 0 {
		for _, l := range lists {
			for _, x := range l {
				out = le.AppendUint64(out, math.Float64bits(x.Beta))
			}
		}
	}
	return out
}

// stepTail returns the retired layouts' step bits of lists — a bit an
// entry, set where its distance differs from the entry's before in its
// list — then the step codes and dictionary, or steps, and β: the columns
// that follow their node IDs.
func (c *current) stepTail(lists [][]Entry) []byte {
	first := make([]uint64, (c.e+63)/64)
	i := uint64(0)
	for _, l := range lists {
		for j, x := range l {
			if j == 0 || x.Dist != l[j-1].Dist {
				first[i/64] |= 1 << (i % 64)
			}
			i++
		}
	}
	var out []byte
	for _, w := range first {
		out = le.AppendUint64(out, w)
	}
	col, _ := stepColumn(lists)
	return append(append(out, col...), c.betas(lists)...)
}

// header returns the current file's header through numSteps, then the
// numDistinct word of the lists' step column.
func (c *current) header(lists [][]Entry) []byte {
	_, d := stepColumn(lists)
	return le.AppendUint64(append([]byte(nil), c.data[:c.hdr]...), d)
}

// width returns the bits a packed value below bound takes: at least 1.
func width(bound uint64) uint64 {
	w := uint64(1)
	for bound > 1<<w {
		w++
	}
	return w
}

// words returns the bytes of a column of count values of w bits.
func words(count, w uint64) int { return int((count*w + 63) / 64 * 8) }

// pack returns the column of vals at w bits each.
func pack(vals []uint64, w uint64) []byte {
	out := make([]byte, words(uint64(len(vals)), w))
	for i, v := range vals {
		for k := uint64(0); k < w; k++ {
			at := uint64(i)*w + k
			out[at/8] |= byte(v>>k&1) << (at % 8)
		}
	}
	return out
}

// Ranks writes the layout of flags 0x00: ranks stored.
func Ranks(cur []byte, lists [][]Entry) []byte { return perEntry(cur, lists, true, false, false) }

// PerEntry writes the layout of flags 0x02: a distance and a 32-bit ID an
// entry.
func PerEntry(cur []byte, lists [][]Entry) []byte { return perEntry(cur, lists, false, false, false) }

// Wide writes the layout of flags 0x06: step-coded distances, 32-bit IDs.
func Wide(cur []byte, lists [][]Entry) []byte { return perEntry(cur, lists, false, true, false) }

// Plain writes the layout of flags 0x0e: packed IDs, 64 bits an offset and
// a float a step.
func Plain(cur []byte, lists [][]Entry) []byte { return perEntry(cur, lists, false, true, true) }

// perEntry writes one of the four layouts with no numDistinct word: the
// current header through numSteps, with the layout's flags and step count,
// then its columns, the β column — the file's last — unchanged.
func perEntry(cur []byte, lists [][]Entry, storeRanks, stepCoded, packed bool) []byte {
	c := parse(cur)
	out := append([]byte(nil), cur[:c.hdr]...)
	flags := c.flags &^ (flagCompact | flagRiceNodes | flagsNew)
	if !packed {
		flags &^= flagPackedNodes
	}
	if !stepCoded {
		flags &^= flagStepDists
		le.PutUint64(out[c.hdr-8:], 0)
	}
	if storeRanks {
		flags &^= flagDerivedRanks
		if c.kind != kindUniform {
			le.PutUint64(out[c.hdr-64+8:], 0) // the seed
		}
	}
	le.PutUint32(out[12:], flags)
	var nodes, dists, ranks, steps []byte
	var ids []uint64
	first := make([]uint64, (c.e+63)/64)
	i := uint64(0)
	for _, l := range lists {
		out = le.AppendUint64(out, i)
		for j, x := range l {
			if j == 0 || x.Dist != l[j-1].Dist {
				first[i/64] |= 1 << (i % 64)
				steps = le.AppendUint64(steps, math.Float64bits(x.Dist))
			}
			ids = append(ids, uint64(x.Node))
			nodes = le.AppendUint32(nodes, uint32(x.Node))
			dists = le.AppendUint64(dists, math.Float64bits(x.Dist))
			ranks = le.AppendUint64(ranks, math.Float64bits(x.Rank))
			i++
		}
	}
	out = le.AppendUint64(out, i)
	if packed {
		out = append(out, pack(ids, width(c.total))...)
	} else {
		out = append(out, nodes...)
		out = append(out, make([]byte, (4*i+7)&^7-4*i)...)
	}
	if stepCoded {
		for _, w := range first {
			out = le.AppendUint64(out, w)
		}
		out = append(out, steps...)
	} else {
		out = append(out, dists...)
	}
	if storeRanks {
		out = append(out, ranks...)
	}
	return append(out, c.betas(lists)...)
}

// Compact writes the layout of flags 0x1e: the numDistinct word but no
// numNodeBits, no bit offsets, and node IDs packed at the bits the set's
// node count needs, after packed offsets; then the step bits, the step
// column and β.
func Compact(cur []byte, lists [][]Entry) []byte {
	c := parse(cur)
	out := c.header(lists)
	le.PutUint32(out[12:], c.flags&^(flagRiceNodes|flagsNew))
	out = append(out, offsets(lists, c.e)...)
	var ids []uint64
	for _, l := range lists {
		for _, x := range l {
			ids = append(ids, uint64(x.Node))
		}
	}
	out = append(out, pack(ids, width(c.total))...)
	return append(out, c.stepTail(lists)...)
}

// Rice writes the layout of flags 0x3e: a run of m IDs of equal distance
// is coded as its gaps xᵢ − xᵢ₋₁ − 1 (x₋₁ = −1), each a Rice code of the
// largest b with m·2^b <= total — gap>>b zero bits, a one, the b low bits
// — with the bit offsets and numNodeBits of those codes; packed offsets
// before them, the step bits, the step column and β after.
func Rice(cur []byte, lists [][]Entry) []byte { return riceLayout(cur, lists, false, false, false) }

// RankOrdered writes the layout of flags 0x7e, a uniform set's: as Rice,
// but a run's numbers are its entries' positions in the set's rank order
// — its nodes sorted by (rank, node), the ranks the header's seed and base
// derive — ascending, below the k-th smallest position of the list's
// entries at smaller distances (the node count while there are fewer than
// k), which is the M of the run's one b, the largest with m·2^b <= M.
func RankOrdered(cur []byte, lists [][]Entry) []byte {
	return riceLayout(cur, lists, true, false, false)
}

// Adaptive writes the layout of flags 0xfe, a uniform set's: as
// RankOrdered, but a list's entry 0, its owner, has no code, and a gap's b
// is the least with n·2^b >= a, a the sum of the run's gaps before it and
// ⌊M/(4m)⌋+1, n their count and 1, both halved as n reaches 16, but at
// least b₀−3, b₀ being RankOrdered's b.
func Adaptive(cur []byte, lists [][]Entry) []byte { return riceLayout(cur, lists, true, true, false) }

// RunLengths writes the layout of flags 0x1fe, a uniform set's, or 0x13e,
// another kind's: as Adaptive, or as Rice, but each run of a list but its
// first and its last is led by its length m−1, a Rice code of the largest
// b <= 15 with n·2^b <= a — a the sum of the list's lengths before it and
// ⌊(entries−1)/(steps−1)⌋, n their count and 1, both halved as n reaches
// 16 — and a step offset a list takes the place of the step bits.
func RunLengths(cur []byte, lists [][]Entry) []byte {
	uniform := parse(cur).kind == kindUniform
	return riceLayout(cur, lists, uniform, uniform, true)
}

// riceLayout writes Rice, or RankOrdered when ranked, or Adaptive when
// adapted too, or RunLengths when lengths.
func riceLayout(cur []byte, lists [][]Entry, ranked, adapted, lengths bool) []byte {
	c := parse(cur)
	out := append(c.header(lists), 0, 0, 0, 0, 0, 0, 0, 0)
	flags := c.flags &^ flagsNew
	if lengths {
		flags |= flagRunLengths
	}
	var pos []uint64
	k := uint64(le.Uint32(cur[c.hdr-64:]))
	if ranked {
		flags |= flagRankNodes
		pos = positions(le.Uint64(cur[c.hdr-56:]), math.Float64frombits(le.Uint64(cur[c.hdr-48:])), c.total)
	}
	if adapted {
		flags |= flagAdaptNodes
	}
	le.PutUint32(out[12:], flags)
	var codes bitList
	var boffs []uint64
	for _, l := range lists {
		boffs = append(boffs, codes.n)
		var low []uint64 // the list's k smallest positions so far, ascending
		runs := uint64(0)
		for j, x := range l {
			if j == 0 || x.Dist != l[j-1].Dist {
				runs++
			}
		}
		la, ln, run := uint64(len(l)-1)/max(runs-1, 1), uint64(1), uint64(0)
		for i := 0; i < len(l); run++ {
			m := 1
			for i+m < len(l) && l[i+m].Dist == l[i].Dist {
				m++
			}
			if lengths && run > 0 && run < runs-1 {
				b := uint64(0)
				for ln<<(b+1) <= la && b < 15 {
					b++
				}
				codes.rice(uint64(m-1), b)
				if la, ln = la+uint64(m-1), ln+1; ln == 16 {
					la, ln = la/2, 8
				}
			}
			if adapted && i == 0 { // the owner, which has no code
				low, i = []uint64{pos[l[0].Node]}, 1
				continue
			}
			run, bound := make([]uint64, m), c.total
			for j, x := range l[i : i+m] {
				run[j] = uint64(x.Node)
				if ranked {
					run[j] = pos[x.Node]
				}
			}
			if ranked {
				slices.Sort(run)
				if uint64(len(low)) >= k {
					bound = low[k-1]
				}
				low = append(low, run...)
				slices.Sort(low)
				low = low[:min(uint64(len(low)), k)]
			}
			b := uint64(max(bits.Len64(bound)-bits.Len64(uint64(m)), 0))
			if b > 0 && uint64(m)<<b > bound {
				b--
			}
			a, n, floor := bound/(4*uint64(m))+1, uint64(1), b-min(b, 3)
			prev := int64(-1)
			for _, x := range run {
				gap := uint64(int64(x) - prev - 1)
				if adapted {
					for b = floor; n<<b < a; b++ {
					}
					if a, n = a+gap, n+1; n == 16 {
						a, n = a/2, n/2
					}
				}
				codes.rice(gap, b)
				prev = int64(x)
			}
			i += m
		}
	}
	boffs = append(boffs, codes.n)
	le.PutUint64(out[c.hdr+8:], codes.n)
	out = append(out, offsets(lists, c.e)...)
	out = append(out, pack(boffs, width(codes.n+1))...)
	if lengths {
		_, ends := stepsOf(lists)
		out = append(out, pack(ends, width(c.steps+1))...)
	}
	for _, w := range codes.words {
		out = le.AppendUint64(out, w)
	}
	if lengths {
		col, _ := stepColumn(lists)
		return append(append(out, col...), c.betas(lists)...)
	}
	return append(out, c.stepTail(lists)...)
}

// bitList is a column of bits, appended one at a time.
type bitList struct {
	words []uint64
	n     uint64
}

// rice appends the Rice code of x at parameter b: x>>b zeros, a one, the
// b low bits.
func (l *bitList) rice(x, b uint64) {
	for q := x >> b; q > 0; q-- {
		l.add(0)
	}
	l.add(1)
	for k := uint64(0); k < b; k++ {
		l.add(x >> k & 1)
	}
}

func (l *bitList) add(x uint64) {
	if l.n%64 == 0 {
		l.words = append(l.words, 0)
	}
	l.words[l.n/64] |= x << (l.n % 64)
	l.n++
}

// Order returns the node at every position of the rank order of a
// total-node uniform set of seed and base-b baseB (none when it is not
// above 1): its nodes sorted by (rank, node).  internal/legacy reads the
// rank-ordered layout through it.
func Order(seed uint64, baseB float64, total int) []int32 {
	src := rank.NewSource(seed)
	of := func(v int32) float64 { return src.Rank(int64(v)) }
	if baseB > 1 {
		base := rank.NewBaseB(baseB)
		of = func(v int32) float64 { return base.Round(src.Rank(int64(v))) }
	}
	perm, _ := rank.Order(total, of)
	return perm
}

// positions returns the rank-order position of every node: Order's
// inverse.
func positions(seed uint64, baseB float64, total uint64) []uint64 {
	pos := make([]uint64, total)
	for p, v := range Order(seed, baseB, int(total)) {
		pos[v] = uint64(p)
	}
	return pos
}
