package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"adsketch/internal/rank"
)

// Bit-packed integer columns and Rice-coded node IDs.  The offsets, bit
// offsets and step codes (stepcode.go) of a frame are stored at the width
// their bound, which the header's counts fix, needs: value i is bits
// [i·w, (i+1)·w), numbered from the least significant bit of word 0, and
// the bits past the last value are zero.
//
// A list is runs of equal distance, the owner alone and then one a step,
// and a run of m entries is coded as its length m−1 (newLengths) — but the
// owner's and the list's last, which its entry and step counts imply —
// and m numbers ascending below a bound M, as their gaps xᵢ − xᵢ₋₁ − 1
// (x₋₁ = −1), each a Rice code of a parameter b — gap>>b zero bits, a one,
// the b low bits — stored nowhere, so a list has one encoding.  In a
// uniform set the numbers are the entries' positions in the set's rank
// order π, its nodes sorted by (rank, node): a bottom-k sketch holds a node
// only if its rank is below the k-th smallest of the nodes closer than it,
// so a run's positions are all below M, the k-th smallest position among
// the list's entries at smaller distances — or total, the set's node
// count, while there are fewer than k — which the decoder works out as it
// goes, mapping the positions back through π and sorting the run's IDs
// back into canonical order.  That threshold falls as entries are
// admitted, so positions crowd the low end of [0, M): a gap's b adapts to
// the run's gaps before it (adaptive).  Entry 0, the owner, has no code
// (rankOrder.position finds it).  The ranks of weighted sets are no
// function of the node alone, and approximate sets' entries need not keep
// below the threshold, so their numbers are the IDs themselves, M is total
// and a run's b ⌊log₂(M/m)⌋ (0 when M < 2m).  A decoder reads no bit
// outside its list, whatever it holds.

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

// riceParam returns the Rice parameter of a run of m >= 1 numbers below
// bound: the largest b with m·2^b <= bound, or 0.  No division: it is paid
// per run.
func riceParam(bound, m int) uint {
	b := bits.Len64(uint64(bound)) - bits.Len64(uint64(m)) // m<<b is in [2^(len(bound)-1), 2^len(bound))
	if b > 0 && m<<b > bound {
		b--
	}
	return uint(max(b, 0))
}

// adaptive is the Rice parameter of a rank-ordered run's next gap: the
// least b with n·2^b >= a, a being the sum of the run's gaps so far and a
// seed, ⌊M/(4m)⌋+1, and n their count and 1, both halved when n reaches
// 16, but at least floor, b₀−3 for the run's one parameter b₀ =
// riceParam(M, m).  The gaps sum to under M < m·2^(b₀+1), so their
// quotients to under 16m, and a < 2M <= 2^31 keeps b <= 31: a run of m
// codes takes under 48m bits, below the 64 an entry a header admits,
// however dense its first positions and far its last.  A decoder that
// reads past M holds a at M, so a and b stay bounded whatever it reads.
type adaptive struct {
	a, n  uint64
	floor uint
}

// newAdaptive returns the parameter of the first gap of a run of m >= 1
// positions below bound.
func newAdaptive(bound, m int) adaptive {
	b := riceParam(bound, m)
	return adaptive{a: uint64(bound/(4*m)) + 1, n: 1, floor: b - min(b, 3)}
}

// param returns b, without division: it is paid per gap.
func (s adaptive) param() uint {
	b := max(bits.Len64(s.a)-bits.Len64(s.n), 0) // n<<b has a's length, or a < n
	if s.n<<b < s.a {
		b++
	}
	return max(uint(b), s.floor)
}

// add counts gap.
func (s *adaptive) add(gap uint64) {
	s.a += gap
	if s.n++; s.n == 16 {
		s.a, s.n = s.a>>1, 8
	}
}

// maxLengthParam caps a length's parameter: a run's length takes at most
// m+15 bits, with its gaps (adaptive) under the 64m a header admits.
const maxLengthParam = 15

// newLengths returns the parameter of the coded run lengths m−1 of a list
// of n entries in runs runs: adaptive's sum and count, seeded with the
// mean run after the owner's, ⌊(n−1)/(runs−1)⌋, and 1.
func newLengths(n, runs int) adaptive {
	return adaptive{a: uint64(max(n-1, 0) / max(runs-1, 1)), n: 1}
}

// lengthParam returns the largest b with n·2^b <= a, or 0: a length is a
// few bits, where rounding up as a gap's parameter does costs a bit a run.
func (s adaptive) lengthParam() uint { return min(riceParam(int(s.a), int(s.n)), maxLengthParam) }

// rankOrder is the order a uniform set's node codes number its nodes in:
// node perm[p] is at position p of the nodes sorted by (rank, node), which
// is Algorithm 1's candidate order, and ranks[p] is its rank.  It is built
// on first use — a build hands over the one it drew — and frames derived
// from one another share it: slices, merges, and freezes that keep the
// node count.  by derives the ranks, which position searches.
type rankOrder struct {
	once  sync.Once
	perm  []int32
	ranks []float64
	total int
	by    ranker
}

// newRankOrder returns the rank order of a total-node set of p, not yet
// built: nil, the identity, unless the set is uniform.
func newRankOrder(p Params, total int) *rankOrder {
	if p.Kind != KindUniform {
		return nil
	}
	return &rankOrder{total: total, by: newRanker(p)}
}

// builtRankOrder returns the rank order perm of nodes whose ranks, which by
// derives, are byNode.
func builtRankOrder(perm []int32, byNode []float64, by ranker) *rankOrder {
	o := &rankOrder{total: len(perm), by: by}
	o.once.Do(func() { o.set(perm, byNode) })
	return o
}

// position returns the position of node v, one of the set's, found by its
// rank: a binary search of ranks, and of the nodes among equal ranks.
func (o *rankOrder) position(v int32) int32 {
	perm, r := o.nodes(), o.by.rank(v, 0)
	lo, hi := 0, len(perm)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if x := o.ranks[mid]; x < r || x == r && perm[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(min(lo, len(perm)-1))
}

// set installs the order perm of nodes whose ranks are byNode.
func (o *rankOrder) set(perm []int32, byNode []float64) {
	o.perm, o.ranks = perm, make([]float64, len(perm))
	for p, v := range perm {
		o.ranks[p] = byNode[v]
	}
}

// nodes returns π: the node at every position.
func (o *rankOrder) nodes() []int32 {
	o.once.Do(func() {
		o.set(rank.Order(o.total, func(v int32) float64 { return o.by.rank(v, 0) }))
	})
	return o.perm
}

// positions returns π's inverse, afresh: the position of every node.
func (o *rankOrder) positions() []int32 {
	perm := o.nodes()
	pos := make([]int32, len(perm))
	for p, v := range perm {
		pos[v] = int32(p)
	}
	return pos
}

// bytes returns the memory the order holds once built: a node and a rank
// a position.
func (o *rankOrder) bytes() int64 {
	if o == nil {
		return 0
	}
	return 12 * int64(o.total)
}

// lowInline is how many of the k smallest positions lowSlots holds in
// place: a larger k takes a slice, grown as the positions come.
const lowInline = 32

// lowSlots keeps the k smallest rank-order positions of a list's entries
// coded so far, ascending; the k-th, once there are k, bounds the next
// run's.
type lowSlots struct {
	k, n int
	own  [lowInline]int32
	more []int32
}

// room returns the slots, at least n of them (n <= k), the first s.n held.
func (s *lowSlots) room(n int) []int32 {
	if s.k <= lowInline {
		return s.own[:s.k]
	}
	if len(s.more) < n {
		s.more = slices.Grow(s.more, n-len(s.more))[:n]
	}
	return s.more
}

// bound returns the exclusive bound of the next run's positions in a set
// of total nodes.
func (s *lowSlots) bound(total int) int {
	if s.n < s.k {
		return total
	}
	return int(s.room(s.k)[s.k-1])
}

// mergeLow adds the run's positions, which ascend, to s: the two ascending
// sequences merged from the back, the largest beyond k dropped.
func mergeLow(s *lowSlots, run []int32) {
	keep := min(s.k, s.n+len(run))
	v := s.room(keep)
	// Past the first keep of the run, none of it is among the k smallest.
	run = run[:min(len(run), keep)]
	i, j := s.n-1, len(run)-1
	for out := s.n + len(run) - 1; j >= 0; out-- {
		var x int32
		if i >= 0 && v[i] > run[j] {
			x, i = v[i], i-1
		} else {
			x, j = run[j], j-1
		}
		if out < keep {
			v[out] = x
		}
	}
	s.n = keep
}

// sortRun sorts a run's values, all below 2^top, ascending: by insertion
// while it is short, and otherwise, given scratch room for it, dealt first
// by their high bits into about twice as many buckets as values, which leaves
// the insertion that puts them back little to do.
func sortRun[T int32 | uint64](s, scratch []T, top int) {
	m, src := len(s), s
	if m > 16 {
		if len(scratch) < m || m > 2*runBuckets {
			slices.Sort(s)
			return
		}
		var count [runBuckets]int32
		b := min(bits.Len(uint(m-1))+1, bits.Len(runBuckets-1))
		shift := uint(max(top-b, 0))
		for _, x := range s {
			count[x>>shift]++
		}
		// Each bucket's start, the sum kept in a register rather than read
		// back from the slot last stored.
		sum := int32(0)
		for i, c := range count[:1<<b] {
			count[i], sum = sum, sum+c
		}
		src = scratch[:m]
		for _, x := range s {
			i := x >> shift
			src[count[i]] = x
			count[i]++
		}
	}
	// In bucket order, each value moves past only the larger ones of its
	// own bucket.
	for i, x := range src {
		j := i
		for ; j > 0 && s[j-1] > x; j-- {
			s[j] = s[j-1]
		}
		s[j] = x
	}
}

// runBuckets is the most buckets sortRun deals a run into.
const runBuckets = 128

// nodeWriter appends entry lists' node IDs to a node stream, coding a run
// at its end.  The stream's whole words are in words, the bits past them in
// acc.
type nodeWriter struct {
	words []uint64
	acc   uint64
	nacc  uint    // the bits in acc: under 64
	total int     // the set's node count
	pos   []int32 // a uniform set's: the rank-order position of every node; nil codes IDs as they are
	low   lowSlots
	run   []int32  // the open run's IDs
	code  []int32  // the open run's positions, sorted
	tmp   []int32  // sortRun's scratch
	set   []uint64 // sortDense's bit set, clear between runs
	owner int32    // the owner of the open list
	own   int32    // a uniform set's: the owner's position, which entry 0 must have
	// The open list's entry count, and its entries and runs before the open
	// run.
	entries, entry, runs int
	lens                 adaptive // the open list's length parameter
	err                  error    // the first entry with no code, which ends the writing
}

// newNodeWriter returns a writer for a total-node set, with room for bits
// of codes.  pos, when non-nil, is the set's rank order's positions (a
// uniform set's), and k the set's sketch parameter, which with them bounds
// a run.
func newNodeWriter(total int, bits int64, pos []int32, k int) nodeWriter {
	w := nodeWriter{words: make([]uint64, 0, bitWords(bits)), total: total, pos: pos}
	w.low.k = k
	return w
}

// list starts the entry list of node owner, of entries entries in steps
// runs of equal distance, which imply its last run's length.
func (w *nodeWriter) list(owner int32, entries, steps int) {
	w.flush()
	w.owner, w.entries, w.entry, w.runs, w.low.n = owner, entries, 0, 0, 0
	w.lens = newLengths(entries, steps)
	if w.pos != nil {
		w.own = w.pos[owner]
	}
}

// recode codes the open list again, p being its codes in an order of
// fewer nodes whose positions shift maps into the writer's: a run is read
// as positions and coded as it is, their order kept, so no run is sorted.
func (w *nodeWriter) recode(p Nodes, shift []int32) {
	pos, c := w.pos, p.cursor()
	w.pos = shift
	for i := 0; i < p.n; {
		c.startRun()
		run := slices.Grow(w.run[:0], c.left)[:c.left]
		w.run = run[:readRun(&c, run)]
		mergeLow(&c.low, w.run)
		i += len(w.run)
		w.flush()
	}
	w.pos = pos
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

// refuse records that the open run's entry i, of node id, has no code,
// unless an earlier entry had none.
func (w *nodeWriter) refuse(i int, id int32, why string) {
	if w.err == nil {
		w.err = fmt.Errorf("core: ADS(%d) entry %d (node %d) %s", w.owner, w.entry+i, id, why)
	}
}

// flush codes the open run, or refuses it: an ID outside the set, or, in
// the order the run is coded in, one that does not ascend strictly below
// the run's bound — a rank too large for the sketch, a node twice, IDs
// out of order — has no code, and neither has a list whose first run is
// more than its owner, or a rank-ordered one whose entry 0 is not its
// owner.  A run of m codes takes under 64·m bits (maxLengthParam), less
// than m+1 words.
func (w *nodeWriter) flush() {
	run := w.run
	m := len(run)
	if m == 0 {
		return
	}
	w.run = run[:0]
	j, last := w.runs, w.entry+m >= w.entries
	defer func() { w.entry, w.runs = w.entry+m, w.runs+1 }()
	if w.err != nil {
		return
	}
	for i, id := range run {
		if uint32(id) >= uint32(w.total) {
			w.refuse(i, id, fmt.Sprintf("names a node outside [0, %d)", w.total))
			return
		}
	}
	if j == 0 {
		switch {
		case w.pos != nil && w.pos[run[0]] != w.own:
			w.refuse(0, run[0], "is not its owner: a rank-ordered list starts with its owner at distance 0")
			return
		case m > 1:
			w.err = fmt.Errorf("core: ADS(%d) does not start with the owner alone at distance 0", w.owner)
			return
		case w.pos != nil: // the owner, whose code is implied
			mergeLow(&w.low, []int32{w.own})
			return
		}
	}
	code, bound, adapt := run, w.total, adaptive{}
	if w.pos != nil {
		code = slices.Grow(w.code[:0], m)[:m]
		for i, id := range run {
			code[i] = w.pos[id]
		}
		w.code, bound = code, w.low.bound(w.total)
		if !slices.IsSorted(code) && !w.sortDense(code, bound) {
			w.tmp = slices.Grow(w.tmp[:0], m)[:m]
			sortRun(code, w.tmp, bits.Len(uint(w.total)))
		}
		mergeLow(&w.low, code)
		adapt = newAdaptive(bound, m)
	}
	b := riceParam(bound, m)
	prev := int64(-1)
	words, acc, nacc := slices.Grow(w.words, m+1), w.acc, w.nacc
	n := len(words)
	words = words[:cap(words)]
	if j > 0 && !last {
		n, acc, nacc = putRice(words, n, acc, nacc, uint64(m-1), w.lens.lengthParam())
		w.lens.add(uint64(m - 1))
	}
	for i, c := range code {
		x := int64(c)
		if x <= prev || x >= int64(bound) { // what is written is dropped with the writer
			if w.pos != nil {
				i = slices.IndexFunc(run, func(v int32) bool { return w.pos[v] == c })
			}
			if x <= prev {
				w.refuse(i, run[i], "is out of canonical order")
			} else {
				w.refuse(i, run[i], fmt.Sprintf("has rank-order position %d, not below %d, the k-th smallest of the entries before its distance: no bottom-k sketch holds it", x, bound))
			}
			return
		}
		gap := uint64(x - prev - 1)
		if adapt.n > 0 {
			b = adapt.param()
			adapt.add(gap)
		}
		n, acc, nacc = putRice(words, n, acc, nacc, gap, b)
		prev = x
	}
	w.words, w.acc, w.nacc = words[:n], acc, nacc
}

// putRice appends the Rice code of x at parameter b — x>>b zeros, a one
// and the b low bits — to a stream of n whole words and the nacc bits of
// acc, words having room for it, and returns the stream's new ends.
func putRice(words []uint64, n int, acc uint64, nacc uint, x uint64, b uint) (int, uint64, uint) {
	q := x >> b
	for ; q+1+uint64(b) > 63; q -= 32 { // a long quotient's first zeros
		if nacc += 32; nacc >= 64 {
			words[n], n, acc, nacc = acc, n+1, 0, nacc-64
		}
	}
	// The quotient's zeros, its stop bit and the remainder: k <= 63 bits.
	cw, k := (1|(x&(1<<b-1))<<1)<<(q&63), uint(q)+1+b
	acc |= cw << (nacc & 63)
	if nacc += k; nacc >= 64 {
		words[n], n, nacc = acc, n+1, nacc-64
		acc = cw >> ((k - nacc) & 63) // the bits that did not fit
	}
	return n, acc, nacc
}

// sortDense sorts a run's positions when they are dense below its bound —
// no more words of bits below it than twice the positions — by marking
// them in a bit set and reading it back, no comparisons to mispredict.  It
// reports whether it did: not for sparse positions, nor for a position at
// or past the bound or twice over, which sortRun leaves for flush to
// refuse.
func (w *nodeWriter) sortDense(code []int32, bound int) bool {
	words := (bound + 63) >> 6
	if words > 2*len(code) {
		return false
	}
	if len(w.set) < words {
		w.set = make([]uint64, max(words, int(bitWords(int64(w.total)))))
	}
	set := w.set[:words]
	for i, p := range code {
		if int(p) >= bound || set[p>>6]&(1<<(p&63)) != 0 {
			for _, q := range code[:i] {
				set[q>>6] = 0
			}
			return false
		}
		set[p>>6] |= 1 << (p & 63)
	}
	j := 0
	for i, x := range set {
		for ; x != 0; x &= x - 1 {
			code[j] = int32(i<<6 + bits.TrailingZeros64(x))
			j++
		}
		set[i] = 0
	}
	return true
}

// copy appends bits [from, from+n) of src: whole lists' codes, of a set of
// the same node count and rank order.
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

// nodeStream is a frame's node codes, the set's node count and, for a
// uniform set, the rank order they are coded in and the k that bounds a
// run; or a standalone index's IDs as they are and its runs' ends.
type nodeStream struct {
	words []uint64
	total int
	order *rankOrder // nil: the codes are of the IDs as they are
	k     int
	ids   []int32 // the IDs as they are, when not coded (non-nil)
	ends  []int32 // with them: the end of each run of equal distance
}

// nodeCodes places one list's codes in a node stream: bits [bit, end),
// what an index keeps beside its steps, and its owner, which a
// rank-ordered list's bits do not code.
type nodeCodes struct {
	s        *nodeStream
	bit, end int64
	own      int32
}

// Nodes is the node column of one entry list, aliasing its frame's node
// stream, and the list's entry and step counts, which its runs' lengths
// are coded against; AppendRuns decodes it.
type Nodes struct {
	nodeCodes
	n, steps int
}

// cursor returns a cursor at the list's first entry.
func (p Nodes) cursor() nodeCursor {
	if p.s.ids != nil {
		return nodeCursor{ids: p.s.ids, ends: p.s.ends, eEnd: p.n, runs: p.steps}
	}
	c := nodeCursor{words: p.s.words, next: p.bit, end: p.end, total: p.s.total, eEnd: p.n, runs: p.steps, lens: newLengths(p.n, p.steps), owner: -1}
	if p.s.order != nil {
		c.perm, c.low.k, c.owner = p.s.order.nodes(), p.s.k, p.s.order.position(p.own)
	}
	return c
}

// AppendRuns appends the node of every entry, in order, to ids, and the
// end of each run of equal distance — one a distance step, what
// StepDists.Runs walks — to ends, and reports whether the list's bits are
// exactly its entries' codes.
func (p Nodes) AppendRuns(ids, ends []int32) ([]int32, []int32, bool) {
	at, eat := len(ids), len(ends)
	ids = slices.Grow(ids, p.n)[:at+p.n]
	ends = slices.Grow(ends, p.steps)[:eat+p.steps]
	return ids, ends, decodeTo(&p, ids[at:], ends[eat:])
}

// decodeTo is AppendRuns into dst and ends, which have room for the list
// and, unless nil, its steps (fillEnds).
func decodeTo(p *Nodes, dst, ends []int32) bool {
	c := p.cursor()
	for i := 0; i < len(dst); {
		i += decodeRun(&c, dst[i:])
		if j := c.run - 1; j < len(ends) {
			ends[j] = int32(i)
		}
	}
	fillEnds(ends, c.run, len(dst))
	return c.Done()
}

// fillEnds ends the runs from from on, which the bits did not reach, and
// the last, at the list's n entries, whatever its bits hold.
func fillEnds(ends []int32, from, n int) {
	for j := min(from, max(len(ends)-1, 0)); j < len(ends); j++ {
		ends[j] = int32(n)
	}
}

// runInline is how many IDs of a run Next holds in place: a longer run
// takes a slice.
const runInline = 64

// nodeCursor decodes a list's node IDs in order, run by run.  Past the
// list's end, or through bits that are not codes, it reads arbitrary IDs,
// in runs of one entry to the entries left, none from outside its bits.
type nodeCursor struct {
	words     []uint64
	next, end int64    // the next bit to load into cur, and the list's end
	cur       uint64   // the loaded bits not read, from the lowest
	avail     uint     // how many: at most 63
	ids       []int32  // a standalone list's IDs, when not coded (non-nil)
	ends      []int32  // and its runs' ends
	e, eEnd   int      // the entries read, and the list's count
	run, runs int      // the runs started, and the list's count
	lens      adaptive // the run lengths' parameter
	left      int      // the entries left in the current run
	b         uint     // the run's Rice parameter, when it has one
	adapt     adaptive // a rank-ordered run's, gap by gap
	owner     int32    // the owner's position while entry 0 is to come; else -1
	bound     int      // the run's bound
	prev      int64    // the run's last number, -1 at its start
	total     int      // the set's node count
	over      bool     // bits that are not codes were read

	perm []int32  // a rank-ordered list's π; nil for IDs as they are
	low  lowSlots // the k smallest positions of the runs decoded

	// Next's run of a rank-ordered list, decoded whole: IDs [at, have) of
	// it are still to come, in own when it fits, else in long.
	at, have int
	own      [runInline]int32
	long     []int32
	tmp      [runInline]int32 // room to sort a short run in
}

// Next returns the node of the next entry, which is in run step().
func (c *nodeCursor) Next() int32 {
	if c.perm == nil {
		var id [1]int32
		decodeRun(c, id[:])
		return id[0]
	}
	if c.at == c.have {
		c.startRun()
		c.at, c.have = 0, decodeRun(c, c.runBuf(c.left))
	}
	c.at++
	return c.runBuf(c.have)[c.at-1]
}

// step returns the run of the entry Next last returned: its distance step,
// which is one of the list's, whatever its bits hold.
func (c *nodeCursor) step() int { return min(c.run, c.runs) - 1 }

// runBuf returns room for m IDs of Next's run.
func (c *nodeCursor) runBuf(m int) []int32 {
	if m <= runInline {
		return c.own[:m]
	}
	if cap(c.long) < m {
		c.long = make([]int32, m)
	}
	return c.long[:m]
}

// Done reports whether every entry was read, in as many runs as the list
// has steps, and the list's bits were exactly their codes.
func (c *nodeCursor) Done() bool {
	return !c.over && c.e == c.eEnd && c.run == c.runs && c.next-int64(c.avail) == c.end
}

// startRun opens the run at c's entry, unless one is open: its length, its
// bound and its Rice parameter.  The owner's run is entry 0 alone and the
// last run the entries left; a length between is read off the bits, and
// one that leaves a later run no entry leaves the runs short (Done).
func (c *nodeCursor) startRun() {
	if c.left > 0 {
		return
	}
	j, left := c.run, c.eEnd-c.e
	c.run++
	m := left
	switch {
	case c.ids != nil:
		if j < len(c.ends) {
			m = int(c.ends[j]) - c.e
		}
	case j == 0:
		m = 1
	case j < c.runs-1:
		m = 1 + int(min(c.readLength(), uint64(max(left, 1))))
	}
	if m < 1 || m > left {
		m, c.over = max(1, min(m, left)), true
	}
	c.left, c.prev, c.bound = m, -1, c.total
	if c.ids != nil || c.owner >= 0 {
		return
	}
	if c.perm != nil {
		c.bound = c.low.bound(c.total)
		c.adapt = newAdaptive(c.bound, m)
	}
	c.b = riceParam(c.bound, m)
}

// readLength reads a run length less one, Rice-coded at the lengths'
// parameter, and counts it: paid per run, not entry.
func (c *nodeCursor) readLength() uint64 {
	x, next, ok := readCode(c.words, c.next-int64(c.avail), c.end, c.lens.lengthParam())
	c.next, c.cur, c.avail, c.over = next, 0, 0, c.over || !ok
	c.lens.add(x)
	return x
}

// decodeRun decodes the IDs from c's entry to the end of its run or of
// dst into dst, and returns how many; a rank-ordered list's dst has room
// for the whole run, whose positions are mapped through π and sorted back
// into canonical order.
func decodeRun(c *nodeCursor, dst []int32) int {
	c.startRun()
	dst = dst[:readRun(c, dst)]
	if c.perm != nil {
		mergeLow(&c.low, dst)
		perm := c.perm
		for i, x := range dst {
			dst[i] = perm[x]
		}
		var scratch []int32
		if len(dst) <= runInline {
			scratch = c.tmp[:len(dst)]
		}
		sortRun(dst, scratch, bits.Len(uint(c.total)))
	}
	return len(dst)
}

// readRun reads the numbers — IDs, or positions in rank order — from c's
// entry, in its open run, to the end of the run or of dst into dst, and
// returns how many.  Each code starts where the last ends, so the reader is
// in locals and a word is loaded every 31 bits.  A position at or past its
// run's bound, which no code spells, is read as the set's last.  The owner
// of a rank-ordered list is read off no bits, and a standalone list's IDs
// are copied (zeros past its end).
func readRun(c *nodeCursor, dst []int32) int {
	dst = dst[:min(len(dst), c.left)]
	switch {
	case c.ids != nil:
		clear(dst[copy(dst, c.ids[min(c.e, len(c.ids)):]):])
		c.left -= len(dst)
		c.e += len(dst)
		return len(dst)
	case c.owner >= 0 && len(dst) > 0:
		dst[0], c.owner, c.left, c.e = c.owner, -1, 0, c.e+1
		return 1
	}
	// Locals, not c's fields, or every code would wait on a store and a load.
	words, next, end, cur, avail := c.words, c.next, c.end, c.cur, c.avail
	b, adapt, prev, ok := c.b, c.adapt, c.prev, true
	mask := uint64(1)<<b - 1
	limit, last := uint64(c.bound), max(int64(c.total)-1, 0)
	if c.perm == nil {
		limit = ^uint64(0)
	}
	for i := range dst {
		if adapt.n > 0 {
			b = adapt.param()
			mask = 1<<b - 1
		}
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
		if adapt.n > 0 {
			adapt.add(gap)
		}
		prev += 1 + int64(gap)
		x := prev
		if uint64(x) >= limit {
			x, ok, adapt.a = last, false, min(adapt.a, limit)
		}
		dst[i] = int32(x)
	}
	c.next, c.cur, c.avail, c.adapt, c.prev, c.over = next, cur, avail, adapt, prev, c.over || !ok
	c.left -= len(dst)
	c.e += len(dst)
	return len(dst)
}

// rankedWeights sets w, which has room for every entry of p's list — a
// uniform set's, rank-ordered — to the entries' HIP adjusted weights in
// canonical order (Lemma 5.1: 1/τ, τ the k-th smallest rank before the
// entry), read off their positions: a run's positions are decoded into w's
// bytes, paired with their nodes and sorted by node, and the k smallest
// positions so far, which the decoder keeps anyway, name τ, whose rank the
// order holds.  It is hipWeightsBottomK over the ranks of the list's
// nodes, bit for bit, with no rank derived; it sets ends as decodeTo does
// and reports what Done does.
func rankedWeights(p *Nodes, w []float64, ends []int32) bool {
	c := p.cursor()
	perm, ranks, k, top := p.s.order.perm, p.s.order.ranks, c.low.k, 32+bits.Len(uint(c.total))
	keys := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(w))), len(w))
	var tmp [2 * runInline]uint64
	for i := 0; i < len(w); {
		c.startRun()
		run := keys[i : i+min(c.left, len(w)-i)]
		// The positions into the first half of the run's bytes, and paired
		// with their nodes from the last: key j's slot holds positions 2j
		// and 2j+1, which are read by then.
		q := unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(run))), 2*len(run))
		readRun(&c, q[:len(run)])
		for j := len(run) - 1; j >= 0; j-- {
			x := q[j]
			run[j] = uint64(perm[x])<<32 | uint64(x)
		}
		var scratch []uint64
		if len(run) <= len(tmp) {
			scratch = tmp[:len(run)]
		}
		sortRun(run, scratch, top)
		v := c.low.room(min(c.low.n+len(run), k))
		for j, key := range run {
			tau := 1.0
			if c.low.n == k {
				tau = ranks[v[k-1]]
			}
			w[i+j] = 1 / tau
			offerLow(&c.low, v, int32(uint32(key)))
		}
		i += len(run)
		if j := c.run - 1; j < len(ends) {
			ends[j] = int32(i)
		}
	}
	fillEnds(ends, c.run, len(w))
	return c.Done()
}

// offerLow adds position x to the slots v of s, if it is among the k
// smallest.
func offerLow(s *lowSlots, v []int32, x int32) {
	i := s.n
	switch {
	case i < s.k:
		s.n++
	case x < v[i-1]:
		i--
	default:
		return
	}
	for ; i > 0 && v[i-1] > x; i-- {
		v[i] = v[i-1]
	}
	v[i] = x
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
