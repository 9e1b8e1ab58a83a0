package core

import (
	"math/bits"
	"slices"
)

// Bit-packed integer columns and Rice-coded node IDs.  The offsets, bit
// offsets and step codes (stepcode.go) of a frame are stored at the width
// their bound, which the header's counts fix, needs: value i is bits
// [i·w, (i+1)·w), numbered from the least significant bit of word 0, and
// the bits past the last value are zero.  A run of m node IDs of equal
// distance, which the step bits delimit, ascends strictly below total, the
// set's node count: it is coded as its gaps xᵢ − xᵢ₋₁ − 1 (x₋₁ = −1), each
// a Rice code of b = ⌊log₂(total/m)⌋ (0 when total < 2m) — gap>>b zero
// bits, a one, the b low bits — stored nowhere, so a list has one
// encoding.  A decoder reads no bit outside its list, whatever it holds.

// widthBelow returns the bits per value of a column whose values are all
// below bound: enough for bound-1, and at least 1.
func widthBelow(bound int64) uint {
	if bound <= 2 {
		return 1
	}
	return uint(bits.Len64(uint64(bound - 1)))
}

// offsetWidth returns the bits per offset of an offsets column whose
// offsets run up to last.
func offsetWidth(last int64) uint { return widthBelow(last + 1) }

// packedWords returns the word count of a column of n values of w bits.
func packedWords(n int64, w uint) int64 { return bitWords(n * int64(w)) }

// packedColumn is a bit-packed column and the width it is packed at.
type packedColumn struct {
	words []uint64
	w     uint // bits per value, 1..63
}

// makePackedColumn returns a clear column for n values of w bits.
func makePackedColumn(n int64, w uint) packedColumn {
	return packedColumn{words: make([]uint64, packedWords(n, w)), w: w}
}

// packOffsets returns the offsets column of vals, which ascend to their
// last: at the width the last needs.
func packOffsets(vals []uint64) packedColumn {
	c := makePackedColumn(int64(len(vals)), offsetWidth(int64(vals[len(vals)-1])))
	for i, x := range vals {
		c.put(int64(i), x)
	}
	return c
}

// get returns value i.
func (c *packedColumn) get(i int64) uint64 {
	bit := uint64(i) * uint64(c.w)
	k, sh := bit>>6, uint(bit&63)
	x := c.words[k] >> sh
	if sh+c.w > 64 {
		x |= c.words[k+1] << (64 - sh)
	}
	return x & (1<<c.w - 1)
}

// put stores x as value i, whose slot is clear.  An x that does not fit
// loses its high bits: callers that did not draw it from below the
// column's bound compare what they read back.
func (c *packedColumn) put(i int64, x uint64) {
	bit := uint64(i) * uint64(c.w)
	k, sh := bit>>6, uint(bit&63)
	x &= 1<<c.w - 1
	c.words[k] |= x << sh
	if sh+c.w > 64 {
		c.words[k+1] |= x >> (64 - sh)
	}
}

// holds reports whether the column is exactly the encoding of n values:
// the words n values take, and no bit set past the last.
func (c *packedColumn) holds(n int64) bool {
	return int64(len(c.words)) == packedWords(n, c.w) && tailClear(c.words, n*int64(c.w))
}

// riceParam returns the Rice parameter of a run of m >= 1 IDs below total: the
// largest b with m·2^b <= total, or 0.  No division: it is paid per run.
func riceParam(total, m int) uint {
	b := bits.Len64(uint64(total)) - bits.Len64(uint64(m)) // m<<b is in [2^(len(total)-1), 2^len(total))
	if b > 0 && m<<b > total {
		b--
	}
	return uint(max(b, 0))
}

// nodeWriter appends node IDs to a node stream, coding a run at its end.
// The stream's whole words are in words, the bits past them in acc.
type nodeWriter struct {
	words []uint64
	acc   uint64
	nacc  uint    // the bits in acc: under 64
	total int     // the set's node count
	run   []int32 // the open run's IDs
}

// newNodeWriter returns a writer for a total-node set, with room for
// entries fixed-width IDs, which their codes seldom exceed.
func newNodeWriter(total, entries int) nodeWriter {
	return nodeWriter{words: make([]uint64, 0, packedWords(int64(entries), widthBelow(int64(total)))), total: total}
}

// add appends the ID of an entry, which starts a run when step is set.
func (w *nodeWriter) add(id int32, step bool) {
	if step {
		w.flush()
	}
	w.run = append(w.run, id)
}

// bits codes the open run and returns the stream's length in bits.
func (w *nodeWriter) bits() int64 {
	w.flush()
	return 64*int64(len(w.words)) + int64(w.nacc)
}

// view codes the open run and returns the stream so far, which the next
// write may change.
func (w *nodeWriter) view() []uint64 {
	w.flush()
	return append(w.words, w.acc)[:bitWords(w.bits())]
}

// stream codes the open run and returns the stream.
func (w *nodeWriter) stream() []uint64 {
	words := w.view()
	if n := len(words); cap(words) > n+n/8 {
		return slices.Clone(words) // give back what the capacity guess overshot
	}
	return words
}

// flush codes the open run.  An ID that does not ascend strictly below
// total is coded as the nearest one that does, which bounds a code's
// length: callers that did not draw the IDs compare what they read back.
// The gaps sum to under total, so a run of m codes takes under m·(3+b)
// bits, less than m+1 words.
func (w *nodeWriter) flush() {
	b := riceParam(w.total, len(w.run))
	prev, top, mask := int64(-1), int64(w.total)-1, uint64(1)<<b-1
	words, acc, nacc := slices.Grow(w.words, len(w.run)+1), w.acc, w.nacc
	n := len(words)
	words = words[:cap(words)]
	for _, id := range w.run {
		x := int64(id)
		if x <= prev || x > top { // not ascending below total
			x = min(max(x, prev+1), max(top, prev+1))
		}
		gap := uint64(x - prev - 1)
		q := gap >> b
		for ; q+1+uint64(b) > 63; q -= 32 { // a long quotient's first zeros
			if nacc += 32; nacc >= 64 {
				words[n], n, acc, nacc = acc, n+1, 0, nacc-64
			}
		}
		// The quotient's zeros, its stop bit and the remainder: k <= 63 bits.
		code, k := (1|(gap&mask)<<1)<<(q&63), uint(q)+1+b
		acc |= code << (nacc & 63)
		if nacc += k; nacc >= 64 {
			words[n], n, nacc = acc, n+1, nacc-64
			acc = code >> ((k - nacc) & 63) // the bits that did not fit
		}
		prev = x
	}
	w.words, w.acc, w.nacc, w.run = words[:n], acc, nacc, w.run[:0]
}

// copy appends bits [from, from+n) of src: whole lists' codes, of a set of
// the same node count.
func (w *nodeWriter) copy(src []uint64, from, n int64) {
	at := w.bits()
	end := at + n
	w.words = append(w.words, w.acc) // the partial word, which copyBits completes
	w.words = append(w.words, make([]uint64, max(0, bitWords(end)-int64(len(w.words))))...)
	copyBits(w.words, at, src, from, n)
	w.acc, w.nacc = 0, uint(end&63)
	if w.nacc > 0 {
		w.acc = w.words[end>>6]
	}
	w.words = w.words[:end>>6]
}

// nodeStream is a frame's node codes and the set's node count; or a
// standalone index's IDs as they are.
type nodeStream struct {
	words []uint64
	total int
	ids   []int32 // the IDs as they are, when not coded (words nil)
}

// nodeCodes places one list's codes in a node stream: bits [bit, end),
// what an index keeps beside the step bits it has anyway.
type nodeCodes struct {
	s        *nodeStream
	bit, end int64
}

// Nodes is the node column of one entry list, aliasing its frame's node
// stream; AppendTo decodes it.
type Nodes struct {
	nodeCodes
	first []uint64 // the frame's step bits, which delimit the runs
	lo    int64    // position of the list's entry 0 in first
	n     int
}

// Len returns the number of entries.
func (p Nodes) Len() int { return p.n }

// cursor returns a cursor at the list's first entry.
func (p Nodes) cursor() nodeCursor {
	if p.s.words == nil {
		return nodeCursor{ids: p.s.ids, eEnd: int64(p.n)}
	}
	return nodeCursor{words: p.s.words, next: p.bit, end: p.end, first: p.first, total: p.s.total, e: p.lo, eEnd: p.lo + int64(p.n)}
}

// AppendTo appends the node of every entry, in order, to dst.
func (p Nodes) AppendTo(dst []int32) []int32 {
	dst, _ = p.decode(dst)
	return dst
}

// decode is AppendTo that also reports whether the list's bits are
// exactly its entries' codes.
func (p Nodes) decode(dst []int32) ([]int32, bool) {
	at := len(dst)
	dst = slices.Grow(dst, p.n)[:at+p.n]
	return dst, decodeTo(&p, dst[at:])
}

// decodeTo is decode into dst, which has room for the list.  A float64
// holds any ID exactly, so it may be storage for floats-to-be.
func decodeTo[T int32 | float64](p *Nodes, dst []T) bool {
	c := p.cursor()
	for i := 0; i < len(dst); {
		i += decodeRun(&c, dst[i:])
	}
	return c.Done()
}

// nodeCursor decodes a list's node IDs in order.  Past the list's end, or
// through bits that are not codes, it reads arbitrary IDs, none of them
// from outside the list's bits; Done tells.
type nodeCursor struct {
	words     []uint64
	next, end int64    // the next bit to load into cur, and the list's end
	cur       uint64   // the loaded bits not read, from the lowest
	avail     uint     // how many: at most 63
	first     []uint64 // the step bits
	ids       []int32  // a standalone list's IDs, when there are no words
	e, eEnd   int64    // the next entry's position in first, and the list's end
	left      int      // the entries left in the current run
	b         uint     // the run's Rice parameter
	prev      int64    // the run's last ID, -1 at its start
	total     int      // the set's node count
	over      bool     // bits that are not codes were read
}

// Next returns the node of the next entry.
func (c *nodeCursor) Next() int32 {
	var id [1]int32
	decodeRun(c, id[:])
	return id[0]
}

// Done reports whether every entry was read and the list's bits were
// exactly their codes.
func (c *nodeCursor) Done() bool {
	return !c.over && c.e == c.eEnd && c.next-int64(c.avail) == c.end
}

// decodeRun decodes the IDs from c's entry to the end of its run or of
// dst into dst, and returns how many.  Each code starts where the last
// ends, so the reader is in locals and a word is loaded every 31 bits.
func decodeRun[T int32 | float64](c *nodeCursor, dst []T) int {
	if c.words == nil { // a standalone index's IDs, read by Next
		dst[0], c.e = T(c.ids[c.e]), c.e+1
		return 1
	}
	if c.left == 0 {
		m := max(nextSet(c.first, c.e, c.eEnd)-c.e, 1)
		c.left, c.b, c.prev = int(m), riceParam(c.total, int(m)), -1
	}
	dst = dst[:min(len(dst), c.left)]
	// Locals, not c's fields, or every code would wait on a store and a load.
	words, next, end, cur, avail := c.words, c.next, c.end, c.cur, c.avail
	b, prev, ok := c.b, c.prev, true
	mask := uint64(1)<<b - 1
	for i := range dst {
		if avail <= 32 && next < end {
			n := min(31, end-next)
			cur |= readBits(words, next, n) << (avail & 63)
			avail, next = avail+uint(n), next+n
		}
		var gap uint64
		// Bit 63, past the loaded bits, spares the count a zero check.
		tz := uint(bits.TrailingZeros64(cur | 1<<63))
		if n := tz + 1 + b; n <= avail { // so n <= 63
			gap = uint64(tz)<<(b&63) | cur>>(tz&63)>>1&mask
			cur >>= n & 63
			avail -= n
		} else {
			var found bool
			gap, next, found = readCode(words, next-int64(avail), end, b)
			cur, avail, ok = 0, 0, ok && found
		}
		prev += 1 + int64(gap)
		dst[i] = T(prev)
	}
	c.next, c.cur, c.avail, c.prev, c.over = next, cur, avail, prev, c.over || !ok
	c.left -= len(dst)
	c.e += int64(len(dst))
	return len(dst)
}

// readCode decodes the code of parameter b at bit pos, a word at a time,
// reading nothing outside [pos, end): the gap, the next code's position
// (past end when this one runs over), and whether a stop bit came first.
func readCode(words []uint64, pos, end int64, b uint) (gap uint64, next int64, ok bool) {
	peek := func() uint64 { // the (up to) 64 bits from pos on, zero from end on
		if pos >= end {
			return 0
		}
		return readBits(words, pos, min(64, end-pos))
	}
	var q uint64
	w := peek()
	for ; w == 0 && pos < end; w = peek() {
		skip := min(64, end-pos)
		q, pos = q+uint64(skip), pos+skip
	}
	if w != 0 {
		tz := bits.TrailingZeros64(w)
		q, pos = q+uint64(tz), pos+int64(tz)+1
	}
	return q<<b | peek()&(1<<b-1), pos + int64(b), w != 0
}

// nextSet returns the position of the first set bit of w in (p, end), or
// end.
func nextSet(w []uint64, p, end int64) int64 {
	for p++; p < end; p = (p>>6 + 1) << 6 {
		if x := w[p>>6] >> (uint(p) & 63); x != 0 {
			return min(p+int64(bits.TrailingZeros64(x)), end)
		}
	}
	return end
}
