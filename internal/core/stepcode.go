package core

import (
	"math"
	"math/bits"
	"slices"
)

// Step-coded distances.  In canonical (distance, node ID) order the
// distances of an entry list are a non-decreasing staircase — on an
// unweighted graph a hundred entries share half a dozen values — so a
// list stores one distance per step instead of a float per entry, and its
// node codes each step's entry count (nodepack.go: run lengths).  The code
// is canonical — runs are maximal — so equal entry lists have equal bytes.
//
// A list's steps are coded inline, in its own bit range of the node stream,
// after its entry and step counts: step 0 is the owner's, at distance 0,
// and has no code; each later one is either an index into the frame's
// dictionary, coded as its delta from the step before's, less one (the
// steps ascend strictly, so the delta is at least one), at a Rice
// parameter the header's counts fix (dictParam) — unary, on a hop graph,
// where a step is nearly always the next distance — or a raw float64.
// Hop distances take a handful of values in a whole frame — six at ten
// thousand nodes — so there the dictionary holds exactly the distinct step
// values in use, strictly ascending, 0 first; random real edge lengths
// make nearly every step its own value, so there the steps stay raw.
// Which form a frame takes is a function of its counts and values alone —
// the dictionary is used iff a bound on its bits is below the raw steps'
// (dictWins) — so a list still has one encoding, and either way a step
// reads back the float64 bit pattern that was stored.

// listCodec is how a frame's lists are coded beyond their node codes: the
// Rice parameters of a list's entry and step counts, eb and sb, and its
// steps — deltas of indexes into dict at Rice parameter db, or raw floats
// when dict is nil.  Every field derives from the counts and the distinct
// step values of the frame the stream was coded for, its nodes lists
// holding entries entries in steps steps; nothing of it is stored but the
// dictionary.
type listCodec struct {
	nodes, entries, steps int64
	eb, sb, db            uint
	dict                  []float64
}

// newListCodec returns the codec of a frame of nodes lists holding entries
// entries in steps steps whose distances, list by list, are raw: a
// dictionary of their distinct values where it wins, raw steps otherwise.
func newListCodec(nodes, entries, steps int64, raw []float64) listCodec {
	c := headCodec(nodes, entries, steps)
	if d := distinctSteps(raw); dictWins(int64(len(d)), steps, nodes) {
		c.dict, c.db = d, dictParam(int64(len(d)), steps, nodes)
	}
	return c
}

// headCodec returns the codec of a frame of those counts with raw steps.
func headCodec(nodes, entries, steps int64) listCodec {
	c := listCodec{nodes: nodes, entries: entries, steps: steps}
	if nodes > 0 {
		c.eb, c.sb = riceParam(int(max(entries-nodes, 0)), int(nodes)), riceParam(int(max(steps-nodes, 0)), int(nodes))
	}
	return c
}

// same reports whether a list coded under c is coded under o bit for bit.
func (c *listCodec) same(o *listCodec) bool {
	return c.eb == o.eb && c.sb == o.sb && c.db == o.db && (c.dict == nil) == (o.dict == nil) && slices.Equal(c.dict, o.dict)
}

// dictParam returns the Rice parameter of the step-index deltas of a frame
// of nodes lists and steps steps over d distinct distances: the largest b
// with 2^b times the mean steps a list at most d.
func dictParam(d, steps, nodes int64) uint {
	return riceParam(int(d), int(max(steps/max(nodes, 1), 1)))
}

// dictWins reports whether steps steps of d distinct values, in nodes
// lists, are strictly smaller coded through a dictionary: 64·d bits of
// dictionary and, a list's index deltas summing to under d, at most d>>b
// bits of quotients a list and 1+b a step (b = dictParam) — against 64 bits
// a step but the owners'.
func dictWins(d, steps, nodes int64) bool {
	if d == 0 {
		return false
	}
	b := dictParam(d, steps, nodes)
	return 64*d+nodes*(d>>b)+(steps-nodes)*int64(1+b) < 64*(steps-nodes)
}

// distinctSteps returns the distinct values of steps, ascending — nil when
// one of them is NaN, which no dictionary can look up.  A handful of
// values, the usual case, are found by insertion into a small sorted list;
// past that the steps are sorted.
func distinctSteps(steps []float64) []float64 {
	const small = 64
	dict := make([]float64, 0, small)
	last := math.NaN()
	for i, d := range steps {
		if d == last {
			continue
		}
		if d != d {
			return nil
		}
		last = d
		at, found := slices.BinarySearch(dict, d)
		if found {
			continue
		}
		if len(dict) == small {
			rest := steps[i:]
			for _, d := range rest {
				if d != d {
					return nil
				}
			}
			dict = append(slices.Grow(dict, len(rest)), rest...)
			slices.Sort(dict)
			return slices.Compact(dict)
		}
		dict = slices.Insert(dict, at, d)
	}
	return dict
}

// StepDists is the distance column of one entry list in step-coded form:
// its distinct distances, ascending, one a run, whose lengths the node
// stream holds (Nodes.AppendRuns); Runs walks the two together.  A frame
// list's view its codes; a standalone index's stream holds them as they
// are.
type StepDists struct {
	s       *nodeStream // the stream the steps are coded in, or held by
	at, end int64       // the bits of a frame list's steps' codes, step 1's on
	n       int         // the list's steps
}

// stepReader reads a list's steps in order.
type stepReader struct {
	sd  *StepDists
	j   int   // the steps read
	idx int   // a dictionary-coded list's: the index of the last step read
	br  bitIn // the codes not read
}

func (s *StepDists) reader() stepReader {
	return stepReader{sd: s, br: bitIn{words: s.s.words, next: s.at, end: s.end}}
}

// next returns the distance of the next step: one of the dictionary's
// however its bits read — a delta past it reads as its last value.
func (r *stepReader) next() float64 {
	s, j := r.sd, r.j
	r.j++
	switch {
	case s.s.steps != nil:
		return s.s.steps[j]
	case j == 0:
		return 0
	case s.s.lc.dict == nil:
		return s.step(j)
	}
	dict := s.s.lc.dict
	r.idx = int(min(uint64(r.idx)+r.br.code(s.s.lc.db)+1, uint64(len(dict)-1)))
	return dict[r.idx]
}

// step returns the distance of the list's step j: a read of the steps
// before it, where they are coded.
func (s StepDists) step(j int) float64 {
	switch {
	case s.s.steps != nil:
		return s.s.steps[j]
	case j == 0:
		return 0
	case s.s.lc.dict == nil:
		return math.Float64frombits(readBits(s.s.words, s.at+64*int64(j-1), 64))
	}
	r := s.reader()
	d := 0.0
	for range j + 1 {
		d = r.next()
	}
	return d
}

// searchLE returns the position of the list's last step at distance <= d,
// or -1: a binary search of raw steps, and otherwise a walk through the
// list's few codes, each a load from the dictionary, which however large
// is never searched.
func (s *StepDists) searchLE(d float64) int {
	n := s.n
	if n == 0 {
		return -1
	}
	if s.s.lc.dict == nil {
		// The answer is in [at-1, at+n-1]; a probe that only ever adds to
		// at compiles without a branch to mispredict.
		at := 0
		for ; n > 1; n -= n >> 1 {
			if half := n >> 1; !(s.step(at+half) > d) {
				at += half
			}
		}
		if s.step(at) > d {
			at--
		}
		return at
	}
	if 0 > d {
		return -1
	}
	r := s.reader()
	r.j = 1
	at := 0
	for ; at+1 < n && !(r.next() > d); at++ {
	}
	return at
}

// Runs calls fn for each run of equal distances, in order — entries
// [from, to) lie at distance d — until fn returns false: ends holds each
// run's end, as Nodes.AppendRuns decodes them.
func (s StepDists) Runs(ends []int32, fn func(from, to int, d float64) bool) {
	from, r := 0, s.reader()
	for _, end := range ends[:min(len(ends), s.n)] {
		if !fn(from, int(end), r.next()) {
			return
		}
		from = int(end)
	}
}

// expand fills dst with the distances of the entries of the runs that end
// at ends.
func (s StepDists) expand(dst []float64, ends []int32) {
	s.Runs(ends, func(from, to int, d float64) bool {
		for i := from; i < to; i++ {
			dst[i] = d
		}
		return true
	})
}

// appendSteps appends the list's steps to dst.
func (s StepDists) appendSteps(dst []float64) []float64 {
	r := s.reader()
	for range s.n {
		dst = append(dst, r.next())
	}
	return dst
}

// bitIn reads codes off a bit range in order, a word at a time: bits
// [next, end) not yet loaded, and avail bits loaded into cur, from the
// lowest.  Nothing outside the range is read; past its end it reads zeros.
type bitIn struct {
	words     []uint64
	next, end int64
	cur       uint64
	avail     uint // at most 63
	over      bool // a code ran past the range
}

// pos returns the position of the next unread bit.
func (r *bitIn) pos() int64 { return r.next - int64(r.avail) }

// code reads a Rice code of parameter b.
func (r *bitIn) code(b uint) uint64 {
	if r.avail <= 32 && r.next < r.end {
		n := min(31, r.end-r.next)
		r.cur |= readBits(r.words, r.next, n) << (r.avail & 63)
		r.avail, r.next = r.avail+uint(n), r.next+n
	}
	// Bit 63, past the loaded bits, spares the count a zero check.
	tz := uint(bits.TrailingZeros64(r.cur | 1<<63))
	if n := tz + 1 + b; n <= r.avail {
		x := uint64(tz)<<(b&63) | r.cur>>(tz&63)>>1&(1<<b-1)
		r.cur >>= n & 63
		r.avail -= n
		return x
	}
	x, next, ok := readCode(r.words, r.pos(), r.end, b)
	r.next, r.cur, r.avail, r.over = min(next, r.end), 0, 0, r.over || !ok || next > r.end
	return x
}

// bitWords returns the word count of an n-bit vector.
func bitWords(n int64) int64 { return (n + 63) >> 6 }

// tailClear reports whether the bits of w from position n on are all zero.
func tailClear(w []uint64, n int64) bool {
	k := n >> 6
	if k >= int64(len(w)) {
		return true
	}
	if w[k]>>(uint(n)&63) != 0 {
		return false
	}
	for _, x := range w[k+1:] {
		if x != 0 {
			return false
		}
	}
	return true
}

// copyBits copies n bits of src starting at srcPos to dst starting at
// dstPos; the destination range must be clear.  Between a head and a tail
// of under a word each, every destination word is two source words
// shifted together — what a block copy of packed node IDs spends its time
// in.
func copyBits(dst []uint64, dstPos int64, src []uint64, srcPos, n int64) {
	if do := dstPos & 63; do != 0 && n > 0 {
		take := min(64-do, n)
		dst[dstPos>>6] |= readBits(src, srcPos, take) << uint(do)
		srcPos, dstPos, n = srcPos+take, dstPos+take, n-take
	}
	if words := n >> 6; words > 0 {
		d, sw, so := dst[dstPos>>6:][:words], srcPos>>6, uint(srcPos)&63
		if so == 0 {
			copy(d, src[sw:])
		} else {
			in := src[sw : sw+words+1]
			for i := range d {
				d[i] = in[i]>>so | in[i+1]<<(64-so)
			}
		}
		srcPos, dstPos, n = srcPos+words<<6, dstPos+words<<6, n&63
	}
	if n > 0 {
		dst[dstPos>>6] |= readBits(src, srcPos, n)
	}
}

// readBits returns the n <= 64 bits of src from position pos, in the low
// bits of a word.
func readBits(src []uint64, pos, n int64) uint64 {
	k, sh := pos>>6, uint(pos)&63
	x := src[k] >> sh
	if int64(sh)+n > 64 {
		x |= src[k+1] << (64 - sh)
	}
	if n < 64 {
		x &= 1<<uint(n) - 1
	}
	return x
}
