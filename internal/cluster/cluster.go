// Package cluster provides the machinery of the partitioned serving
// tier: a node-ID router over the contiguous shard ranges of a split
// sketch set, a scatter-gather runner for fanning one query out to the
// shards that own its nodes, and the partial-response merges that
// reassemble shard answers into the single-set answer.
//
// The design target is the DegreeSketch-style topology (Priest,
// arXiv:2004.04289): per-node sketches distributed across workers by
// node ID, with a coordinator that scatters each query to the owning
// workers and aggregates the partials.  Everything here is deliberately
// deterministic — routing depends only on the ranges, and every merge
// reproduces the single-set evaluation order — so a scattered answer is
// bit-for-bit identical to the unpartitioned one.
package cluster

import (
	"context"
	"sync"
)

// Scatter runs fn(i) for every shard index in [0, n) concurrently and
// returns the first error in index order, or the context's error when ctx
// is done.  It is the fan-out half of the scatter-gather cycle; the
// caller's fn performs one shard call and stores the partial, and the
// Merge* helpers gather.
func Scatter(ctx context.Context, n int, fn func(i int) error) error {
	errs, err := ScatterAll(ctx, n, fn)
	if err != nil {
		return err
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// ScatterAll runs fn(i) for every shard index in [0, n) concurrently and
// waits for all of them: one shard's failure does not stop the others.
// It returns the per-index errors (nil entries for the shards that
// succeeded) so the caller can apply a partial-failure policy — degrade
// around the failed shards, or surface the first error.  Every call gets
// its own goroutine, except the first, which runs on the caller: shard
// calls block on the network, so they are not capped at GOMAXPROCS.  A
// context already done starts no call and marks every shard with its
// error, so no entry is silently nil; a context done by the time the
// calls return is reported in the second return.
func ScatterAll(ctx context.Context, n int, fn func(i int) error) ([]error, error) {
	errs := make([]error, n)
	if err := ctx.Err(); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return errs, err
	}
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	if n > 0 {
		errs[0] = fn(0)
	}
	wg.Wait()
	return errs, ctx.Err()
}
