// Package query provides the serving-side machinery for batch sketch
// queries: a concurrency-safe, lazily populated cache of per-node HIP
// query indices, and a context-aware chunked scan for evaluating batches
// of per-node queries in parallel.
//
// The design target is the ROADMAP's heavy-query-traffic regime: building a
// HIPIndex derives the adjusted weights of one sketch (a pass over its
// entries keeping the k smallest ranks so far in sorted slots) and its
// prefix sums, which is wasteful to repeat on every query.  The cache pays
// that cost once per node, on the node's first query, after which any
// number of concurrent readers answer neighborhood / closeness / Q_g
// queries from the immutable index in O(log size) or O(1).  A set nobody
// queries costs no index memory, and a node's first query waits for its own
// index only.
package query

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"adsketch/internal/core"
)

// IndexCache lazily builds and caches one immutable *core.HIPIndex per
// node.  It is safe for concurrent use by multiple goroutines without
// external locking: slots are filled with compare-and-swap, so two racing
// readers may both build the same node's index, but exactly one result is
// published and, the build being deterministic, both observe identical
// values.  The publisher counts the index as built and its bytes as held.
//
// A hit is one atomic load and writes nothing: the caller reports how
// many lookups it made through AddLookups, once per chunk of a scan, and
// Stats derives the hits from that count and the misses.
type IndexCache struct {
	build   func(int32) *core.HIPIndex
	slots   []atomic.Pointer[core.HIPIndex]
	lookups atomic.Int64
	misses  atomic.Int64
	built   atomic.Int64
	bytes   atomic.Int64
}

// NewIndexCache returns an empty cache of n slots whose misses are filled
// by build (which must be pure and safe for concurrent invocation).
func NewIndexCache(n int, build func(int32) *core.HIPIndex) *IndexCache {
	return &IndexCache{build: build, slots: make([]atomic.Pointer[core.HIPIndex], n)}
}

// Len returns the number of slots.
func (c *IndexCache) Len() int { return len(c.slots) }

// Bytes returns the heap the published indices hold of their own
// (core.HIPIndex.Bytes): what serving the queried nodes costs beyond the
// set.  A racing builder's discarded index is not counted.
func (c *IndexCache) Bytes() int64 { return c.bytes.Load() }

// CacheStats is a point-in-time snapshot of the cache counters, shaped
// for JSON serving (the adsserver /statsz endpoint).
type CacheStats struct {
	Slots  int   `json:"slots"`
	Built  int   `json:"built"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Stats snapshots the counters.  Misses counts Get calls that had to
// build an index (racing builders each count a miss); Hits is every
// reported lookup that did not, so a snapshot taken while a chunk runs
// may lag its misses and is clamped at zero.
func (c *IndexCache) Stats() CacheStats {
	misses := c.misses.Load()
	return CacheStats{
		Slots:  len(c.slots),
		Built:  int(c.built.Load()),
		Hits:   max(c.lookups.Load()-misses, 0),
		Misses: misses,
	}
}

// Get returns node v's index, building and publishing it on first use.
// It does not count the lookup; see AddLookups.
func (c *IndexCache) Get(v int32) *core.HIPIndex {
	slot := &c.slots[v]
	if idx := slot.Load(); idx != nil {
		return idx
	}
	c.misses.Add(1)
	idx := c.build(v)
	if slot.CompareAndSwap(nil, idx) {
		c.built.Add(1)
		c.bytes.Add(idx.Bytes())
		return idx
	}
	return slot.Load()
}

// AddLookups records n Get calls that have returned.
func (c *IndexCache) AddLookups(n int) { c.lookups.Add(int64(n)) }

// ChunkSize is the number of items ForEach hands a worker at a time.  A
// warm lookup costs tens of nanoseconds, so per-item scheduling — an
// atomic claim and a context check, which takes a mutex on a cancellable
// context — costs more than the work; 256 items (~10 µs of lookups)
// amortise both, still split a 10⁴-node scan into ~40 chunks for
// the workers to balance, and keep a cancelled scan from running more
// than one chunk per worker past the cancellation.
const ChunkSize = 256

// ForEach calls fn(lo, hi) for consecutive chunks of [0, n) of at most
// ChunkSize items, across the given number of workers (<= 0 means
// GOMAXPROCS).  One chunk or one worker runs on the calling goroutine
// without starting any; otherwise chunks are claimed from a shared
// counter, so the work distribution adapts to uneven cost.  ctx is
// checked before each chunk and once after the last: a cancelled scan
// stops claiming chunks and ForEach returns the context's error, in which
// case some chunks never ran.
func ForEach(ctx context.Context, workers, n int, fn func(lo, hi int)) error {
	chunks := (n + ChunkSize - 1) / ChunkSize
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || chunks <= 1 {
		for lo := 0; lo < n && ctx.Err() == nil; lo += ChunkSize {
			fn(lo, min(lo+ChunkSize, n))
		}
		return ctx.Err()
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	run := func() {
		for ctx.Err() == nil {
			c := int(next.Add(1) - 1)
			if c >= chunks {
				return
			}
			lo := c * ChunkSize
			fn(lo, min(lo+ChunkSize, n))
		}
	}
	for w := 1; w < min(workers, chunks); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	return ctx.Err()
}

// CheckNodes validates that every queried node is a legal index for a set
// of n sketches.
func CheckNodes(n int, nodes []int32) error {
	for _, v := range nodes {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("query: node %d out of range [0, %d)", v, n)
		}
	}
	return nil
}
