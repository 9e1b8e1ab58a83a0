// Package cluster provides the machinery of the partitioned serving
// tier: a node-ID router (Plan) over a split sketch set, a scatter-gather
// runner for fanning one batch out to the shards that own its nodes, and
// the partial-response merges that reassemble shard answers into the
// single-set answer.
//
// The design target is the DegreeSketch-style topology (Priest,
// arXiv:2004.04289): per-node sketches distributed across workers by
// node ID, with a coordinator that scatters each query to the owning
// workers and aggregates the partials.  Node ownership is one rule, held
// by internal/core: partition i of a P-way split of n nodes owns
// [i·n/P, (i+1)·n/P) (core.PartRange), and node v belongs to partition
// core.PartOf(v, P, n).  Plan routes by it, and the partition files and
// the distributed build place nodes by it too.  Everything here is
// deliberately deterministic — routing depends only on the split, and
// every merge reproduces the single-set evaluation order — so a scattered
// answer is bit-for-bit identical to the unpartitioned one.
package cluster

import (
	"context"
	"sync"
	"time"
)

// ScatterAll is the fan-out half of the scatter-gather cycle.  It runs
// fn(i) for every shard index in [0, n) concurrently — fn performs one
// shard call and stores its partial for the merges — and waits for all
// of them: one shard's failure does not stop the others.
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

// Backoff is the pause before retry n of a call, n ≥ 1 counting the
// attempts that follow a failed one: base doubled per retry, capped at
// one second.  A base ≤ 0 pauses not at all.  The coordinator's shard
// calls and adsserver's worker dials both back off by it.
func Backoff(base time.Duration, n int) time.Duration {
	d := max(base, 0)
	for ; n > 1 && d < time.Second; n-- {
		d *= 2
	}
	return min(d, time.Second)
}
