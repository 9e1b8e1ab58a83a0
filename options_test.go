package adsketch_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"adsketch"
	"adsketch/internal/core"
	"adsketch/internal/distbuild"
	"adsketch/lab"
)

func TestBuildOptionValidation(t *testing.T) {
	g := adsketch.Cycle(10)
	beta := make([]float64, 10)
	for i := range beta {
		beta[i] = 1
	}
	cases := []struct {
		name string
		opts []adsketch.Option
		want error
	}{
		{"k zero", []adsketch.Option{adsketch.WithK(0)}, adsketch.ErrBadOption},
		{"k negative", []adsketch.Option{adsketch.WithK(-3)}, adsketch.ErrBadOption},
		{"k past 2^20", []adsketch.Option{adsketch.WithK(1<<20 + 1)}, adsketch.ErrBadOption},
		{"k 2^40", []adsketch.Option{adsketch.WithK(1 << 40)}, adsketch.ErrBadOption},
		{"base-b one", []adsketch.Option{adsketch.WithBaseB(1)}, adsketch.ErrBadOption},
		{"base-b below one", []adsketch.Option{adsketch.WithBaseB(0.5)}, adsketch.ErrBadOption},
		{"empty weights", []adsketch.Option{adsketch.WithNodeWeights(nil)}, adsketch.ErrBadOption},
		{"short weights", []adsketch.Option{adsketch.WithNodeWeights([]float64{1, 2})}, adsketch.ErrBadOption},
		{"non-positive weight", []adsketch.Option{adsketch.WithNodeWeights(append([]float64{0}, beta[1:]...))}, adsketch.ErrBadOption},
		{"NaN weight", []adsketch.Option{adsketch.WithNodeWeights(append([]float64{math.NaN()}, beta[1:]...))}, adsketch.ErrBadOption},
		{"infinite weight", []adsketch.Option{adsketch.WithNodeWeights(append([]float64{math.Inf(1)}, beta[1:]...))}, adsketch.ErrBadOption},
		{"nil option", []adsketch.Option{nil}, adsketch.ErrBadOption},
		{"weights+baseb", []adsketch.Option{
			adsketch.WithNodeWeights(beta), adsketch.WithBaseB(2),
		}, adsketch.ErrIncompatibleOptions},
		{"priority without weights", []adsketch.Option{
			adsketch.WithPriorityRanks(),
		}, adsketch.ErrIncompatibleOptions},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set, err := adsketch.Build(g, tc.opts...)
			if set != nil || err == nil {
				t.Fatalf("Build = (%v, %v), want error", set, err)
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("error %q does not match %v", err, tc.want)
			}
			// The two sentinels are disjoint.
			other := adsketch.ErrIncompatibleOptions
			if tc.want == adsketch.ErrIncompatibleOptions {
				other = adsketch.ErrBadOption
			}
			if errors.Is(err, other) {
				t.Errorf("error %q matches both sentinels", err)
			}
		})
	}
}

func TestBuildAcceptsCompatibleCombinations(t *testing.T) {
	g := adsketch.Grid(5, 5)
	beta := make([]float64, g.NumNodes())
	for i := range beta {
		beta[i] = float64(i + 1)
	}
	cases := [][]adsketch.Option{
		nil, // all defaults
		{adsketch.WithK(4), adsketch.WithBaseB(2)},
		{adsketch.WithBaseB(1.5)},
		{adsketch.WithNodeWeights(beta)},
		{adsketch.WithNodeWeights(beta), adsketch.WithPriorityRanks()},
	}
	for i, opts := range cases {
		set, err := adsketch.Build(g, opts...)
		if err != nil {
			t.Errorf("case %d: %v", i, err)
			continue
		}
		if set.NumNodes() != g.NumNodes() {
			t.Errorf("case %d: NumNodes = %d", i, set.NumNodes())
		}
	}
}

// Build must reproduce the internal construction entry points bit-for-bit
// under equal options (the guarantee the removed legacy shims documented),
// and so the other constructions of the same sets: the Section 3 DP
// (lab.BuildDP) and LocalUpdates, which the distributed build runs.

func serialize(t *testing.T, set adsketch.SketchSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := set.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBuildParityUniform(t *testing.T) {
	g := adsketch.WithRandomWeights(adsketch.GNP(60, 0.08, false, 5), 1, 4, 6)
	unweighted := adsketch.GNP(60, 0.08, false, 5)
	cases := []struct {
		name   string
		g      *adsketch.Graph
		o      core.Options
		direct func(*adsketch.Graph, core.Options) (*adsketch.Set, error)
	}{
		{"bottomk/dijkstra", g, core.Options{K: 4, Seed: 9}, workers(0)},
		{"bottomk/parallel", g, core.Options{K: 4, Seed: 9}, workers(2)},
		{"bottomk/local", g, core.Options{K: 4, Seed: 9}, func(g *adsketch.Graph, o core.Options) (*adsketch.Set, error) {
			return distBuild(t, g, o)
		}},
		{"bottomk/dp", unweighted, core.Options{K: 4, Seed: 9}, dp},
		{"baseb/dijkstra", g, core.Options{K: 4, Seed: 7, BaseB: 2}, workers(0)},
		{"baseb/dp", unweighted, core.Options{K: 4, Seed: 7, BaseB: 2}, dp},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			direct, err := tc.direct(tc.g, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			opts := []adsketch.Option{adsketch.WithK(tc.o.K), adsketch.WithSeed(tc.o.Seed)}
			if tc.o.BaseB != 0 {
				opts = append(opts, adsketch.WithBaseB(tc.o.BaseB))
			}
			set, err := adsketch.Build(tc.g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serialize(t, direct), serialize(t, set)) {
				t.Error("serialized sketches differ between the direct build and option-based Build")
			}
		})
	}
}

// workers is core's entry point at a worker bound; Build sizes itself by
// GOMAXPROCS.
func workers(n int) func(*adsketch.Graph, core.Options) (*adsketch.Set, error) {
	return func(g *adsketch.Graph, o core.Options) (*adsketch.Set, error) { return core.BuildSetParallel(g, o, n) }
}

func dp(g *adsketch.Graph, o core.Options) (*adsketch.Set, error) {
	return lab.BuildDP(g, o.K, o.Seed, o.BaseB)
}

// distBuild runs LocalUpdates (Algorithm 2) exactly: a two-worker
// in-process distributed build of g's edge list, its partitions merged.
func distBuild(t *testing.T, g *adsketch.Graph, o core.Options) (*adsketch.Set, error) {
	return distBuildSpec(t, g, distbuild.Spec{K: o.K, Seed: o.Seed, Kind: distbuild.KindUniform, Parts: 2})
}

// distBuildSpec runs the distributed build spec describes over g's edge
// list, in process, and merges its partitions; it fills in the path, the
// node count and the graph's direction.
func distBuildSpec(t *testing.T, g *adsketch.Graph, spec distbuild.Spec) (*adsketch.Set, error) {
	path := filepath.Join(t.TempDir(), "g.txt")
	var buf bytes.Buffer
	if err := adsketch.WriteEdgeList(&buf, g); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	spec.Path, spec.N, spec.Directed = path, g.NumNodes(), g.Directed()
	exs, err := distbuild.NewLocalExchangers(spec)
	if err != nil {
		return nil, err
	}
	res, err := distbuild.Run(context.Background(), exs)
	if err != nil {
		return nil, err
	}
	parts := make([]*adsketch.Set, len(res.Partitions))
	for i, b := range res.Partitions {
		if parts[i], err = adsketch.ReadSketchSet(bytes.NewReader(b)); err != nil {
			return nil, err
		}
	}
	return adsketch.MergeSketchSets(parts)
}

// setProcs sets GOMAXPROCS, the worker count Build and Engine size
// themselves by, to n until tb ends; calls stack, each restoring the one
// before.  A test calling it must not be parallel.
func setProcs(tb testing.TB, n int) {
	tb.Helper()
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestBuildParityParallelismInvariant(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	g := adsketch.GNP(50, 0.1, false, 3)
	base, err := adsketch.Build(g, adsketch.WithK(3), adsketch.WithSeed(1),
		adsketch.WithBaseB(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		setProcs(t, workers)
		got, err := adsketch.Build(g, adsketch.WithK(3), adsketch.WithSeed(1),
			adsketch.WithBaseB(2))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serialize(t, base), serialize(t, got)) {
			t.Errorf("parallelism %d changed the built sketches", workers)
		}
	}
	// A bottom-k build, uniform or weighted, batches Algorithm 1 across
	// its workers; one worker is the loop on the calling goroutine.
	beta := make([]float64, g.NumNodes())
	for i := range beta {
		beta[i] = 0.5 + float64(i%7)
	}
	for name, opts := range map[string][]adsketch.Option{
		"bottom-k": {adsketch.WithK(3), adsketch.WithSeed(1)},
		"weighted": {adsketch.WithK(3), adsketch.WithSeed(1), adsketch.WithNodeWeights(beta)},
	} {
		setProcs(t, 1)
		serial, err := adsketch.Build(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{procs, 2, 4} {
			setProcs(t, workers)
			parallel, err := adsketch.Build(g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serialize(t, serial), serialize(t, parallel)) {
				t.Errorf("%s: parallelism %d changed the built sketches", name, workers)
			}
		}
	}
}

func TestBuildParityWeighted(t *testing.T) {
	g := adsketch.PreferentialAttachment(80, 3, 4)
	beta := make([]float64, 80)
	for i := range beta {
		beta[i] = 0.5 + float64(i%7)
	}
	for _, priority := range []bool{false, true} {
		name := "exponential"
		directBuild := core.BuildWeightedSet
		opts := []adsketch.Option{adsketch.WithK(5), adsketch.WithSeed(11), adsketch.WithNodeWeights(beta)}
		if priority {
			name = "priority"
			directBuild = core.BuildPriorityWeightedSet
			opts = append(opts, adsketch.WithPriorityRanks())
		}
		t.Run(name, func(t *testing.T) {
			legacy, err := directBuild(g, 5, 11, beta)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := adsketch.Build(g, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if ws.Params() != legacy.Params() {
				t.Fatalf("Build made a set of %+v, want %+v", ws.Params(), legacy.Params())
			}
			for v := int32(0); int(v) < g.NumNodes(); v++ {
				a, b := legacy.Sketch(v).(*core.WeightedADS).Entries(), ws.Sketch(v).(*core.WeightedADS).Entries()
				if len(a) != len(b) {
					t.Fatalf("node %d: %d vs %d entries", v, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("node %d entry %d: %+v vs %+v", v, i, a[i], b[i])
					}
				}
			}
		})
	}
}
