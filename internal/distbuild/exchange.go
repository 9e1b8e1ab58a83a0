package distbuild

import (
	"context"
	"fmt"
	"sync"
)

// Exchanger is one worker as the driver sees it, whatever transport it
// sits behind: Init loads the worker's graph slice and returns its
// round-0 outboxes, Step delivers one round's inbox and returns the
// next outboxes (both indexed by destination worker), and Freeze
// returns the worker's finished v3 partition file bytes.
//
// The driver mediates every exchange (a star topology): it regroups
// the workers' outboxes into per-worker inboxes at each round barrier
// and declares convergence when a round generates no candidates.
// Workers never talk to each other directly, which keeps both
// transports — in-process goroutines and wire-framed HTTP — behind
// this one interface.
type Exchanger interface {
	Init(ctx context.Context) ([][]Candidate, error)
	Step(ctx context.Context, round int, inbox []Candidate) ([][]Candidate, error)
	Freeze(ctx context.Context) ([]byte, error)
}

// NewLocalExchangers builds the spec's P workers in-process, one
// exchanger per partition: each *Worker is its own Exchanger.
func NewLocalExchangers(spec Spec) ([]Exchanger, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	exs := make([]Exchanger, spec.Parts)
	for i := range exs {
		ws, err := spec.Worker(i)
		if err != nil {
			return nil, err
		}
		w, err := NewWorker(ws)
		if err != nil {
			return nil, err
		}
		exs[i] = w
	}
	return exs, nil
}

// Run drives a distributed build over one exchanger per partition:
// parallel Init, then BSP rounds — regroup outboxes into inboxes,
// parallel Step — until a round generates no candidates, then parallel
// Freeze.  The returned partitions are in worker order.
func Run(ctx context.Context, exs []Exchanger) (*Result, error) {
	p := len(exs)
	if p == 0 {
		return nil, fmt.Errorf("distbuild: no workers")
	}
	outs := make([][][]Candidate, p)
	err := inParallel(p, func(i int) error {
		o, err := exs[i].Init(ctx)
		if err != nil {
			return fmt.Errorf("distbuild: worker %d init: %w", i, err)
		}
		if len(o) != p {
			return fmt.Errorf("distbuild: worker %d returned %d outboxes for %d workers", i, len(o), p)
		}
		outs[i] = o
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{}
	for round := 1; ; round++ {
		inboxes, total := regroup(outs, p)
		if total == 0 {
			res.Rounds = round - 1
			break
		}
		res.Candidates += total
		err := inParallel(p, func(i int) error {
			o, err := exs[i].Step(ctx, round, inboxes[i])
			if err != nil {
				return fmt.Errorf("distbuild: worker %d round %d: %w", i, round, err)
			}
			if len(o) != p {
				return fmt.Errorf("distbuild: worker %d returned %d outboxes for %d workers", i, len(o), p)
			}
			outs[i] = o
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	res.Partitions = make([][]byte, p)
	err = inParallel(p, func(i int) error {
		b, err := exs[i].Freeze(ctx)
		if err != nil {
			return fmt.Errorf("distbuild: worker %d freeze: %w", i, err)
		}
		res.Partitions[i] = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// regroup turns per-sender outboxes into per-receiver inboxes
// (inboxes[j] concatenates outs[i][j] in sender order) and counts the
// candidates moved.  Receivers re-sort their inbox into canonical
// order, so the concatenation order never affects the build.
func regroup(outs [][][]Candidate, p int) ([][]Candidate, int64) {
	inboxes := make([][]Candidate, p)
	var total int64
	for j := 0; j < p; j++ {
		n := 0
		for i := 0; i < p; i++ {
			n += len(outs[i][j])
		}
		if n == 0 {
			continue
		}
		in := make([]Candidate, 0, n)
		for i := 0; i < p; i++ {
			in = append(in, outs[i][j]...)
		}
		inboxes[j] = in
		total += int64(n)
	}
	return inboxes, total
}

// inParallel runs fn(0..n-1) concurrently and returns the first error
// by index order.
func inParallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
