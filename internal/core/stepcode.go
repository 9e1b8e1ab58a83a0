package core

import "math/bits"

// Step-coded distances.  In canonical (distance, node ID) order the
// distances of an entry list are a non-decreasing staircase — on an
// unweighted graph a hundred entries share half a dozen values — so a
// frame stores one bit per entry and one float per step instead of a
// float per entry: bit i of first is set where entry i's distance differs
// from its predecessor's in the segment (always at a segment start), and
// step holds one distance per set bit, in entry order.  The code is
// canonical — runs are maximal — so equal entry lists have equal bytes,
// and a list of all-distinct distances costs one bit per entry more than
// the plain column.  Bits are numbered from the least significant bit of
// word 0, which on disk (little-endian words) is bit i%8 of byte i/8.

// StepDists is the distance column of one entry list in step-coded form:
// a view of the frame's bit vector from the list's first entry, and the
// list's distinct distances in ascending order, one per entry that starts
// a step (entry 0 of a non-empty list always does).  It aliases its
// frame's storage; Runs walks it.
type StepDists struct {
	first []uint64 // the frame's bit vector
	lo    int64    // position of the list's entry 0 in it
	steps []float64
}

// starts reports whether entry i begins a new distance step.
func (s StepDists) starts(i int) bool { return bitAt(s.first, s.lo+int64(i)) }

// at returns the distance of entry i: a popcount over the list's bits
// before it, so cheap for the few words a sketch spans, not O(1).
func (s StepDists) at(i int) float64 {
	return s.steps[countBits(s.first, s.lo, s.lo+int64(i)+1)-1]
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
		if !fn(i, end, s.steps[j]) {
			return
		}
		i = end
	}
}

// expand fills dst with the distances of entries 0..len(dst)-1.
func (s StepDists) expand(dst []float64) {
	for i, j := 0, 0; i < len(dst); j++ {
		end, d := s.runEnd(i, len(dst)), s.steps[j]
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
	step  []float64
	open  bool    // the current segment has an entry
	last  float64 // its latest distance
}

// newStepWriter sizes a code for e entries holding steps steps.
func newStepWriter(e, steps int) stepWriter {
	return stepWriter{first: make([]uint64, bitWords(int64(e))), step: make([]float64, 0, steps)}
}

// segment starts a new segment: its first entry opens a step whatever its
// distance.
func (w *stepWriter) segment() { w.open = false }

// add records the distance of the entry at position pos.  The common
// case — the distance of the entry before — is all that inlines.
func (w *stepWriter) add(pos int64, d float64) {
	if !w.open || d != w.last {
		w.start(pos, d)
	}
}

func (w *stepWriter) start(pos int64, d float64) {
	setBit(w.first, pos)
	w.step = append(w.step, d)
	w.open, w.last = true, d
}

// stepCode codes a per-entry distance column whose segments are bounded
// by off (off[0] = 0) — the one pass that turns a file written before
// distances were step-coded into the frame layout.
func stepCode(off []int64, dist []float64) ([]uint64, []float64) {
	steps := 0
	for s := 0; s+1 < len(off); s++ {
		for i := off[s]; i < off[s+1]; i++ {
			if i == off[s] || dist[i] != dist[i-1] {
				steps++
			}
		}
	}
	w := newStepWriter(len(dist), steps)
	for s := 0; s+1 < len(off); s++ {
		w.segment()
		for i := off[s]; i < off[s+1]; i++ {
			w.add(i, dist[i])
		}
	}
	return w.first, w.step
}
