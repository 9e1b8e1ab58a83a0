package core

import (
	"math"
	"math/bits"
	"slices"
)

// Step-coded distances.  In canonical (distance, node ID) order the
// distances of an entry list are a non-decreasing staircase — on an
// unweighted graph a hundred entries share half a dozen values — so a
// frame stores one bit per entry and one distance per step instead of a
// float per entry: bit i of first is set where entry i's distance differs
// from its predecessor's in the list (always at a list start), and
// the step column holds one distance per set bit, in entry order.  The code
// is canonical — runs are maximal — so equal entry lists have equal bytes,
// and a list of all-distinct distances costs one bit per entry more than
// the plain column.  Bits are numbered from the least significant bit of
// word 0, which on disk (little-endian words) is bit i%8 of byte i/8.
//
// The step column comes in two forms.  Hop distances take a handful of
// values in a whole frame — six at ten thousand nodes — so there a step is
// a code into the frame's dictionary: dict holds exactly the distinct step
// values in use, strictly ascending, and code one index into it per step,
// at widthBelow(len(dict)) bits (nodepack.go).  Random real edge lengths
// make nearly every step its own value, so there the steps stay raw
// float64s.  Which form a column takes is a function of its values alone —
// the dictionary is used iff it is strictly smaller, 8·D + 8·⌈S·w/64⌉ <
// 8·S for S steps of D distinct values at w bits a code — so a step list
// still has one encoding, and either way step j reads back the float64 bit
// pattern that was stored.

// stepColumn is the distance of every step of a frame (or index), in
// step order: raw, or coded through dict when that is smaller.
type stepColumn struct {
	n    int64        // steps
	raw  []float64    // one distance per step; nil when dict is in use
	dict []float64    // the distinct step values, strictly ascending
	code packedColumn // one index into dict per step
	uses []int64      // uses[c]: how many of the column's steps code to dict[c]; nil for a column opened from a file, which nothing has counted
	// dlo is, for a raw column, a lower bound on its count of distinct
	// values (0: none known) — what lets a freeze over it rule the
	// dictionary out without counting them again.
	dlo int64
}

// dictWins reports whether s steps of d distinct values are strictly
// smaller as codes and a dictionary than raw.  It is monotone: when d
// values do not win, no larger count does.
func dictWins(d, s int64) bool {
	return d > 0 && d+packedWords(s, widthBelow(d)) < s
}

// codeAt returns the code of step j of a dictionary-coded column, as an
// index into dict.  A code is read through here and nowhere else, and one
// past the dictionary — which the width can spell unless the dictionary's
// size is a power of two, and only a file can hold — reads as the last
// value: the file openers trust the codes as they trust every entry, so
// they do not scan them, and a bad one cannot index anything out of range.
// The stream readers refuse it (canonical).
func (c *stepColumn) codeAt(j int64) int {
	return int(min(c.code.get(j), uint64(len(c.dict)-1)))
}

// at returns the distance of step j.
func (c *stepColumn) at(j int64) float64 {
	if c.dict != nil {
		return c.dict[c.codeAt(j)]
	}
	return c.raw[j]
}

// appendRaw appends the distances of steps [lo, hi) to dst.
func (c *stepColumn) appendRaw(dst []float64, lo, hi int64) []float64 {
	if c.dict == nil {
		return append(dst, c.raw[lo:hi]...)
	}
	for j := lo; j < hi; j++ {
		dst = append(dst, c.dict[c.codeAt(j)])
	}
	return dst
}

// usesIn returns the use counts of the dictionary over steps [lo, hi) only
// — a copy of uses when that is every step, and they were kept.
func (c *stepColumn) usesIn(lo, hi int64) []int64 {
	if lo == 0 && hi == c.n && c.uses != nil {
		return slices.Clone(c.uses)
	}
	uses := make([]int64, len(c.dict))
	for j := lo; j < hi; j++ {
		uses[c.codeAt(j)]++
	}
	return uses
}

// makeStepColumn returns the canonical column of the steps raw, which it
// keeps where the dictionary does not win.
func makeStepColumn(raw []float64) stepColumn {
	dict := distinctSteps(raw)
	if !dictWins(int64(len(dict)), int64(len(raw))) {
		return stepColumn{n: int64(len(raw)), raw: raw, dlo: int64(len(dict))}
	}
	c := newStepColumn(dict, int64(len(raw)))
	c.uses = make([]int64, len(dict))
	for _, d := range raw {
		c.uses[c.add(d)]++
	}
	return c
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

// canonical reports whether the column is the form makeStepColumn gives
// its steps: every code inside the dictionary, every dictionary value in
// use and the dictionary winning, or raw steps no dictionary would beat.
// (That a dictionary ascends is checked when a file is opened.)
func (c *stepColumn) canonical() bool {
	if c.dict == nil {
		return !dictWins(int64(len(distinctSteps(c.raw))), c.n)
	}
	for j := int64(0); j < c.n; j++ {
		if c.code.get(j) >= uint64(len(c.dict)) {
			return false
		}
	}
	return dictWins(int64(len(c.dict)), c.n) && !slices.Contains(c.usesIn(0, c.n), 0)
}

// newStepColumn returns an empty column for steps steps to be added in
// order: coded through dict when it is non-nil — every step added must
// then be one of its values — and raw otherwise, where steps is only a
// capacity.
func newStepColumn(dict []float64, steps int64) stepColumn {
	if dict == nil {
		return stepColumn{raw: make([]float64, 0, steps)}
	}
	return stepColumn{dict: dict, code: makePackedColumn(steps, widthBelow(int64(len(dict))))}
}

// add appends a step at distance d and returns its code (0 for a raw
// column).  A d the dictionary lacks — a caller's bug, or a NaN it is
// about to be refused for — is stored as the nearest code, not out of
// range.
func (c *stepColumn) add(d float64) int {
	if c.dict == nil {
		c.raw = append(c.raw, d)
		c.n++
		return 0
	}
	at, _ := slices.BinarySearch(c.dict, d)
	at = min(at, len(c.dict)-1)
	c.code.put(c.n, uint64(at))
	c.n++
	return at
}

// copy appends steps [lo, hi) of src: a slice or a bit range when both
// columns are raw or both code through the same dictionary (same, which
// the caller works out once per source), step by step otherwise.
func (c *stepColumn) copy(src *stepColumn, same bool, lo, hi int64) {
	switch {
	case c.dict == nil && src.dict == nil:
		c.raw = append(c.raw, src.raw[lo:hi]...)
		c.n += hi - lo
	case same:
		c.code.copyFrom(c.n, &src.code, lo, hi-lo)
		c.n += hi - lo
	default:
		for j := lo; j < hi; j++ {
			c.add(src.at(j))
		}
	}
}

// StepDists is the distance column of one entry list in step-coded form:
// a view of the frame's bit vector from the list's first entry, and of the
// frame's step column from the list's first step — the list's distinct
// distances in ascending order, one per entry that starts a step (entry 0
// of a non-empty list always does).  It aliases its frame's storage; Runs
// walks it.
type StepDists struct {
	first []uint64    // the frame's bit vector
	lo    int64       // position of the list's entry 0 in it
	col   *stepColumn // the frame's step column; nil for the empty zero value
	slo   int64       // position of the list's step 0 in it
	n     int         // the list's steps
}

// step returns the distance of the list's step j.
func (s StepDists) step(j int) float64 { return s.col.at(s.slo + int64(j)) }

// steps returns the list's distinct distances, ascending, as a slice: the
// raw column's own, or a fresh one decoded through the dictionary.
func (s StepDists) steps() []float64 {
	if s.n == 0 {
		return nil
	}
	if s.col.dict == nil {
		return s.col.raw[s.slo : s.slo+int64(s.n) : s.slo+int64(s.n)]
	}
	return s.col.appendRaw(make([]float64, 0, s.n), s.slo, s.slo+int64(s.n))
}

// searchLE returns the position of the list's last step at distance <= d,
// or -1: a binary search of the list's few ascending steps, each read
// through the dictionary where there is one — a probe is then a code and
// a dictionary load, and the dictionary, however large, is never searched.
func (s *StepDists) searchLE(d float64) int {
	c, at, n := s.col, 0, s.n
	if n == 0 {
		return -1
	}
	// The answer is in [at-1, at+n-1]; a probe that only ever adds to at
	// compiles without a branch to mispredict.  Two loops, not one over
	// step(): the call per probe doubled the look-up's time.
	if c.dict == nil {
		steps := c.raw[s.slo : s.slo+int64(n)]
		for ; n > 1; n -= n >> 1 {
			if half := n >> 1; !(steps[at+half] > d) {
				at += half
			}
		}
		if steps[at] > d {
			at--
		}
		return at
	}
	for ; n > 1; n -= n >> 1 {
		if half := n >> 1; !(c.dict[c.codeAt(s.slo+int64(at+half))] > d) {
			at += half
		}
	}
	if c.dict[c.codeAt(s.slo+int64(at))] > d {
		at--
	}
	return at
}

// starts reports whether entry i begins a new distance step.
func (s StepDists) starts(i int) bool { return bitAt(s.first, s.lo+int64(i)) }

// at returns the distance of entry i: a popcount over the list's bits
// before it, so cheap for the few words a sketch spans, not O(1).
func (s StepDists) at(i int) float64 {
	return s.step(countBits(s.first, s.lo, s.lo+int64(i)+1) - 1)
}

// runEnd returns the end of the run of equal distances that entry i
// belongs to, in a list of n entries: the next entry that starts a step,
// or n.  Walking a list run by run costs a word scan per step, not a bit
// test per entry.
func (s StepDists) runEnd(i, n int) int {
	p, end := s.lo+int64(i)+1, s.lo+int64(n)
	for p < end {
		if w := s.first[p>>6] >> (uint(p) & 63); w != 0 {
			return int(min(p+int64(bits.TrailingZeros64(w)), end) - s.lo)
		}
		p = (p>>6 + 1) << 6
	}
	return n
}

// Runs calls fn for each run of equal distances of a list of n entries,
// in order — entries [from, to) lie at distance d — until fn returns
// false.
func (s StepDists) Runs(n int, fn func(from, to int, d float64) bool) {
	for i, j := 0, 0; i < n; j++ {
		end := s.runEnd(i, n)
		if !fn(i, end, s.step(j)) {
			return
		}
		i = end
	}
}

// expand fills dst with the distances of entries 0..len(dst)-1.
func (s StepDists) expand(dst []float64) {
	for i, j := 0, 0; i < len(dst); j++ {
		end, d := s.runEnd(i, len(dst)), s.step(j)
		for ; i < end; i++ {
			dst[i] = d
		}
	}
}

func bitAt(w []uint64, i int64) bool { return w[i>>6]>>(uint(i)&63)&1 != 0 }

func setBit(w []uint64, i int64) { w[i>>6] |= 1 << (uint(i) & 63) }

// bitWords returns the word count of an n-bit vector.
func bitWords(n int64) int64 { return (n + 63) >> 6 }

// countBits returns the number of set bits in positions [from, to).
func countBits(w []uint64, from, to int64) int {
	if from >= to {
		return 0
	}
	lw, hw := from>>6, (to-1)>>6
	head := ^uint64(0) << (uint(from) & 63)
	tail := ^uint64(0) >> (63 - uint(to-1)&63)
	if lw == hw {
		return bits.OnesCount64(w[lw] & head & tail)
	}
	n := bits.OnesCount64(w[lw]&head) + bits.OnesCount64(w[hw]&tail)
	for _, x := range w[lw+1 : hw] {
		n += bits.OnesCount64(x)
	}
	return n
}

// tailClear reports whether the bits of w from position n on are all zero.
func tailClear(w []uint64, n int64) bool {
	return countBits(w, n, int64(len(w))*64) == 0
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

// rankSampleWords is the sampling interval of a frame's popcount index:
// one cumulative count per 8 words (512 entries), 1/64 of the bit vector.
const rankSampleWords = 8

// sampleRanks returns the cumulative popcounts rank1 reads — out[b] is the
// number of set bits before word b*rankSampleWords — and the total.
func sampleRanks(w []uint64) (out []int64, total int64) {
	out = make([]int64, len(w)/rankSampleWords+1)
	for i, x := range w {
		if i%rankSampleWords == 0 {
			out[i/rankSampleWords] = total
		}
		total += int64(bits.OnesCount64(x))
	}
	if len(w)%rankSampleWords == 0 {
		out[len(w)/rankSampleWords] = total
	}
	return out, total
}

// rank1 returns the number of set bits of the frame's vector before
// position i — the index into step of the step that starts at i.
func (f *Frame) rank1(i int64) int64 {
	w := i >> 6
	b := w / rankSampleWords
	return f.samp[b] + int64(countBits(f.first, b*rankSampleWords<<6, i))
}

// stepWriter appends entries' distances to a step code under
// construction.
type stepWriter struct {
	first []uint64
	steps stepColumn
	open  bool    // the current list has an entry
	last  float64 // its latest distance
}

// newStepWriter sizes a code for e entries holding steps steps, coded
// through dict or, when it is nil, raw (newStepColumn).
func newStepWriter(e int, dict []float64, steps int64) stepWriter {
	return stepWriter{first: make([]uint64, bitWords(int64(e))), steps: newStepColumn(dict, steps)}
}

// list starts a new entry list: its first entry opens a step whatever its
// distance.
func (w *stepWriter) list() { w.open = false }

// add records the distance of the entry at position pos.  The common
// case — the distance of the entry before — is all that inlines.
func (w *stepWriter) add(pos int64, d float64) {
	if !w.open || d != w.last {
		w.start(pos, d)
	}
}

func (w *stepWriter) start(pos int64, d float64) {
	setBit(w.first, pos)
	w.steps.add(d)
	w.open, w.last = true, d
}
