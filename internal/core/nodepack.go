package core

import (
	"math/bits"
	"slices"
)

// Bit-packed integer columns.  Every integer column of a frame — the node
// IDs of its entries, the offsets of its sketches, the dictionary codes of
// its distance steps (stepcode.go) — holds values below a bound the frame's
// header counts fix, so it is stored at the width that bound needs, not at
// 32 or 64 bits: value i is bits [i·w, (i+1)·w) of the column, numbered
// like the step bits from the least significant bit of word 0, a value that
// straddles two words continuing in the low bits of the next.
//
//	column      value bound                      w at PA(10000,5), k=16
//	node IDs    total, the whole set's nodes     14
//	offsets     numEntries + 1                   21
//	step codes  numDistinct, the dictionary's    3
//
// The width is a function of the bound alone and is recorded nowhere, so a
// list of values has one encoding; the bits past the last value are zero.
// Access is O(1): a shift and a mask, and a second word for the values
// that straddle.

// widthBelow returns the bits per value of a column whose values are all
// below bound: enough for bound-1, and at least 1.
func widthBelow(bound int64) uint {
	if bound <= 2 {
		return 1
	}
	return uint(bits.Len64(uint64(bound - 1)))
}

// nodeWidth returns the bits per ID in the node column of a set of total
// nodes (the whole set's count, for a partition).
func nodeWidth(total int) uint { return widthBelow(int64(total)) }

// offsetWidth returns the bits per offset in the offsets column of a frame
// of numEntries entries: an offset is an entry position, or numEntries.
func offsetWidth(numEntries int64) uint { return widthBelow(numEntries + 1) }

// packedWords returns the word count of a column of n values of w bits.
func packedWords(n int64, w uint) int64 { return bitWords(n * int64(w)) }

// packedColumn is a bit-packed column and the width it is packed at.
// Every view of a frame's column points at the one packedColumn the frame
// (or index) holds, so a view costs what a slice header does.
type packedColumn struct {
	words []uint64
	w     uint // bits per value, 1..63
}

// makePackedColumn returns a clear column for n values of w bits.
func makePackedColumn(n int64, w uint) packedColumn {
	return packedColumn{words: make([]uint64, packedWords(n, w)), w: w}
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

// copyFrom copies n values from position spos of src to position dpos,
// whose slots are clear: one bit range when the widths agree, value by
// value when this column's bound has crossed a power of two since src was
// packed.
func (c *packedColumn) copyFrom(dpos int64, src *packedColumn, spos, n int64) {
	if c.w == src.w {
		w := int64(c.w)
		copyBits(c.words, dpos*w, src.words, spos*w, n*w)
		return
	}
	for i := int64(0); i < n; i++ {
		c.put(dpos+i, src.get(spos+i))
	}
}

// holds reports whether the column is exactly the encoding of n values:
// the words n values take, and no bit set past the last.
func (c *packedColumn) holds(n int64) bool {
	return int64(len(c.words)) == packedWords(n, c.w) && tailClear(c.words, n*int64(c.w))
}

// view returns the entry range [lo, hi) of a node column.
func (c *packedColumn) view(lo, hi int64) Nodes { return Nodes{col: c, lo: lo, n: int(hi - lo)} }

// nodeBits returns a node ID as the value a node column stores.
func nodeBits(id int32) uint64 { return uint64(uint32(id)) }

// Nodes is the node column of one entry list in packed form: a view of
// its frame's column from the list's first entry.  It aliases the frame's
// storage.
type Nodes struct {
	col *packedColumn // the frame's column; nil for the empty zero value
	lo  int64         // position of the list's entry 0 in it, in entries
	n   int
}

// Len returns the number of entries.
func (p Nodes) Len() int { return p.n }

// At returns the node of entry i.
func (p Nodes) At(i int) int32 { return int32(p.col.get(p.lo + int64(i))) }

// AppendTo appends the nodes of entries [from, to) to dst — the way to
// read a run of them, an equal-distance run of StepDists.Runs or a whole
// list, as a plain slice.
func (p Nodes) AppendTo(dst []int32, from, to int) []int32 {
	if from >= to {
		return dst
	}
	at := len(dst)
	dst = slices.Grow(dst, to-from)[:at+to-from]
	// Sequential decode: cur holds the unread bits of the current word,
	// avail of them, so a word is loaded once, not once per ID.
	words, w := p.col.words, p.col.w
	mask := uint64(1)<<w - 1
	bit := uint64(p.lo+int64(from)) * uint64(w)
	k, sh := bit>>6, uint(bit&63)
	cur, avail := words[k]>>sh, 64-sh
	for i := at; i < len(dst); i++ {
		if avail >= w {
			dst[i] = int32(cur & mask)
			cur >>= w
			avail -= w
			continue
		}
		k++
		next := words[k]
		dst[i] = int32((cur | next<<avail) & mask)
		cur, avail = next>>(w-avail), 64-(w-avail)
	}
	return dst
}
