package core

import (
	"fmt"
	"math/bits"
	"slices"
)

// Bit-packed node IDs.  An entry names a node of its set, and a set of
// total nodes has IDs of nodeWidth(total) bits, not 32 — 14 at ten
// thousand nodes — so a frame stores them at that width, back to back:
// entry i's ID is bits [i·w, (i+1)·w) of the column, numbered like the
// step bits (stepcode.go) from the least significant bit of word 0, an ID
// that straddles two words continuing in the low bits of the next.  The
// width is a function of the node count alone and is recorded nowhere, so
// an entry list has one encoding.  Access is O(1): a shift and a mask, and
// a second word for the IDs that straddle.

// nodeWidth returns the bits per ID in the node column of a set of total
// nodes (the whole set's count, for a partition): enough for total-1, and
// at least 1.
func nodeWidth(total int) uint {
	if total <= 2 {
		return 1
	}
	return uint(bits.Len(uint(total - 1)))
}

// packedWords returns the word count of a column of e IDs of w bits.
func packedWords(e int64, w uint) int64 { return bitWords(e * int64(w)) }

// nodeColumn is a packed ID column and the width it is packed at.  Every
// view of the column points at the one nodeColumn its frame (or index
// arena) holds, so a view costs what a slice header does.
type nodeColumn struct {
	words []uint64
	w     uint // bits per ID, 1..32
}

// makeNodeColumn returns a clear column for e IDs of w bits.
func makeNodeColumn(e int64, w uint) nodeColumn {
	return nodeColumn{words: make([]uint64, packedWords(e, w)), w: w}
}

// get returns ID i.
func (c *nodeColumn) get(i int64) int32 {
	bit := uint64(i) * uint64(c.w)
	k, sh := bit>>6, uint(bit&63)
	x := c.words[k] >> sh
	if sh+c.w > 64 {
		x |= c.words[k+1] << (64 - sh)
	}
	return int32(x & (1<<c.w - 1))
}

// put stores id as ID i, whose slot is clear.  An id that does not fit
// loses its high bits: callers that did not draw it from the set's own
// node range compare what they read back.
func (c *nodeColumn) put(i int64, id int32) {
	bit := uint64(i) * uint64(c.w)
	k, sh := bit>>6, uint(bit&63)
	x := uint64(uint32(id)) & (1<<c.w - 1)
	c.words[k] |= x << sh
	if sh+c.w > 64 {
		c.words[k+1] |= x >> (64 - sh)
	}
}

// copyFrom copies n IDs from position spos of src to position dpos, whose
// slots are clear: one bit range when the widths agree, ID by ID when this
// column's node count has crossed a power of two since src was packed.
func (c *nodeColumn) copyFrom(dpos int64, src *nodeColumn, spos, n int64) {
	if c.w == src.w {
		w := int64(c.w)
		copyBits(c.words, dpos*w, src.words, spos*w, n*w)
		return
	}
	for i := int64(0); i < n; i++ {
		c.put(dpos+i, src.get(spos+i))
	}
}

// view returns the entry range [lo, hi) of the column.
func (c *nodeColumn) view(lo, hi int64) Nodes { return Nodes{col: c, lo: lo, n: int(hi - lo)} }

// packColumn packs a plain ID column of a set of total nodes — the one
// pass that turns a file written before IDs were packed into the frame
// layout.  An ID outside [0, total) has no encoding and is an error.
func packColumn(ids []int32, total int) (nodeColumn, error) {
	c := makeNodeColumn(int64(len(ids)), nodeWidth(total))
	for i, id := range ids {
		if uint32(id) >= uint32(total) {
			return nodeColumn{}, fmt.Errorf("core: sketch file entry %d names node %d outside [0, %d)", i, id, total)
		}
		c.put(int64(i), id)
	}
	return c, nil
}

// Nodes is the node column of one entry list in packed form: a view of
// its frame's column from the list's first entry.  It aliases the frame's
// storage.
type Nodes struct {
	col *nodeColumn // the frame's column; nil for the empty zero value
	lo  int64       // position of the list's entry 0 in it, in entries
	n   int
}

// Len returns the number of entries.
func (p Nodes) Len() int { return p.n }

// At returns the node of entry i.
func (p Nodes) At(i int) int32 { return p.col.get(p.lo + int64(i)) }

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
