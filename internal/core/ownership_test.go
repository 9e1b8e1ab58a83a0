package core_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adsketch"
	"adsketch/internal/cluster"
	"adsketch/internal/core"
	"adsketch/internal/distbuild"
)

// TestOwnershipRule: every caller that places the nodes of a P-way split
// of n nodes agrees with core.PartRange and its inverse core.PartOf — the
// SplitSketchSet envelopes, FreezePartition, the builders' work ranges,
// the coordinator's routing (cluster.Plan) and its construction check,
// and the distributed build's owned range and candidate routing — and
// each of them refuses exactly the splits the rule refuses, with the
// rule's reason.
func TestOwnershipRule(t *testing.T) {
	p := core.Params{Kind: core.KindUniform, Options: core.Options{K: 2, Seed: 7}}
	rank := p.Ranker()
	for _, tc := range []struct{ n, parts int }{
		{0, 1}, {1, 1}, {7, 1}, {10, 2}, {7, 3}, {10, 4}, {20, 4}, {20, 7}, {7, 7}, {1000, 16},
		{3, 4}, {0, 2}, {10, 0}, {10, -1}, {1<<20 + 2, 1<<20 + 1},
	} {
		t.Run(fmt.Sprintf("n=%d,P=%d", tc.n, tc.parts), func(t *testing.T) {
			n, parts := tc.n, tc.parts
			_, _, ruleErr := core.PartRange(0, parts, n)
			if ruleErr != nil {
				refusals(t, p, n, parts, ruleErr)
				return
			}
			lists := make([][]core.Entry, n)
			for v := range lists {
				lists[v] = []core.Entry{{Node: int32(v), Rank: rank(int32(v), 0)}}
			}
			set, err := core.FreezeLists(p, 0, 0, n, lists, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			split, err := core.SplitSketchSet(set, parts)
			if err != nil {
				t.Fatal(err)
			}
			all := make([]int32, n)
			for v := range all {
				all[v] = int32(v)
			}
			owner := make([]int, n)
			for _, sub := range cluster.Plan(all, parts, n) {
				for _, v := range sub.Nodes {
					owner[v] = sub.Shard
				}
			}
			var next int32
			for i := 0; i < parts; i++ {
				lo, hi, err := core.PartRange(i, parts, n)
				if err != nil || lo != next || hi < lo || hi-lo > int32(n/parts+1) {
					t.Fatalf("partition %d is [%d, %d) (%v), want a range from %d", i, lo, hi, err, next)
				}
				next = hi
				if l, h := core.SplitSpan(i, parts, n); l != int(lo) || h != int(hi) {
					t.Errorf("the builders' work range %d is [%d, %d), the rule's [%d, %d)", i, l, h, lo, hi)
				}
				if s := split[i]; s.Lo() != lo || s.Hi() != hi {
					t.Errorf("SplitSketchSet's partition %d is [%d, %d), the rule's [%d, %d)", i, s.Lo(), s.Hi(), lo, hi)
				}
				fp, err := core.FreezePartition(p, i, parts, n, lists[lo:hi], nil)
				if err != nil || fp.Lo() != lo || fp.Hi() != hi {
					t.Errorf("FreezePartition of partition %d: %v", i, err)
				}
				for v := lo; v < hi; v++ {
					if core.PartOf(v, parts, n) != i || owner[v] != i {
						t.Errorf("node %d of partition %d: PartOf says %d, the coordinator's Plan %d",
							v, i, core.PartOf(v, parts, n), owner[v])
					}
				}
			}
			if int(next) != n {
				t.Fatalf("the partitions end at node %d of %d", next, n)
			}
			coordinatorAgrees(t, split, all)
			if n > 0 { // a build needs nodes, whatever the split
				distbuildAgrees(t, n, parts)
			}
		})
	}
}

// refusals checks that every caller refuses a split the rule refuses,
// naming the rule's reason.
func refusals(t *testing.T, p core.Params, n, parts int, ruleErr error) {
	t.Helper()
	errs := map[string]error{}
	if n <= 1000 {
		lists := make([][]core.Entry, n)
		rank := p.Ranker()
		for v := range lists {
			lists[v] = []core.Entry{{Node: int32(v), Rank: rank(int32(v), 0)}}
		}
		set, err := core.FreezeLists(p, 0, 0, n, lists, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		_, errs["SplitSketchSet"] = core.SplitSketchSet(set, parts)
	}
	_, errs["FreezePartition"] = core.FreezePartition(p, 0, parts, n, nil, nil)
	_, errs["NewCoordinator"] = adsketch.NewCoordinator([]adsketch.ShardBackend{metaShard{adsketch.ShardMeta{
		Index: 0, Count: parts, Lo: 0, Hi: int32(n / max(parts, 1)), TotalNodes: n, K: 2, Kind: adsketch.KindUniform}}})
	spec := distbuild.Spec{Path: "edges.txt", N: n, K: 2, Parts: parts}
	errs["distbuild.Spec"] = spec.Validate()
	ws := distbuild.WorkerSpec{Path: "edges.txt", N: n, K: 2, Parts: parts}
	errs["distbuild.WorkerSpec"] = ws.Validate()
	for name, err := range errs {
		if n == 0 && strings.HasPrefix(name, "distbuild") {
			continue // a build of no nodes is refused as such
		}
		if err == nil || !strings.Contains(err.Error(), ruleErr.Error()) {
			t.Errorf("%s: %v, want the rule's refusal %q", name, err, ruleErr)
		}
	}
}

// coordinatorAgrees serves the split in reverse order behind a coordinator,
// which must accept it and route every node to the engine owning it: an
// engine refuses a node outside its range.
func coordinatorAgrees(t *testing.T, split []*core.Set, all []int32) {
	t.Helper()
	backends := make([]adsketch.ShardBackend, len(split))
	for i, s := range split {
		eng, err := adsketch.NewEngine(s)
		if err != nil {
			t.Fatal(err)
		}
		backends[len(split)-1-i] = eng
	}
	coord, err := adsketch.NewCoordinator(backends)
	if err != nil {
		t.Fatalf("NewCoordinator refused the split: %v", err)
	}
	if len(all) == 0 {
		return
	}
	resp, err := coord.Do(context.Background(), adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: all}})
	if err != nil || len(resp.Scores) != len(all) {
		t.Errorf("closeness of every node through the coordinator: %v", err)
	}
}

// distbuildAgrees checks the distributed build's workers on a cycle of n
// nodes: each owns its rule range, and routes every candidate to the
// worker of the rule's owner of its target.
func distbuildAgrees(t *testing.T, n, parts int) {
	t.Helper()
	var edges strings.Builder
	for v := 0; v < n; v++ {
		fmt.Fprintf(&edges, "%d %d\n", v, (v+1)%n)
	}
	path := filepath.Join(t.TempDir(), "cycle.txt")
	if err := os.WriteFile(path, []byte(edges.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := distbuild.Spec{Path: path, N: n, K: 2, Seed: 7, Parts: parts}
	for i := 0; i < parts; i++ {
		ws, err := spec.Worker(i)
		if err != nil {
			t.Fatal(err)
		}
		w, err := distbuild.NewWorker(ws)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := w.Init(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, _ := core.PartRange(i, parts, n)
		// Round 0 offers each owned node to its neighbours on the cycle,
		// so the candidates name every node the worker owns.
		seeded := make(map[int32]bool)
		for dst, out := range outs {
			for _, c := range out {
				if c.Node < lo || c.Node >= hi || core.PartOf(c.Target, parts, n) != dst {
					t.Fatalf("distbuild worker %d sends a candidate of node %d for node %d to worker %d", i, c.Node, c.Target, dst)
				}
				seeded[c.Node] = true
			}
		}
		if len(seeded) != int(hi-lo) {
			t.Errorf("distbuild worker %d seeds %d nodes, the rule gives it %d", i, len(seeded), hi-lo)
		}
	}
}

// metaShard is a backend that reports the meta it is given and serves
// nothing.
type metaShard struct{ meta adsketch.ShardMeta }

func (s metaShard) Meta() adsketch.ShardMeta { return s.meta }

func (metaShard) Do(context.Context, adsketch.Request) (adsketch.Response, error) {
	return adsketch.Response{}, fmt.Errorf("metaShard serves nothing")
}

func (metaShard) DoBatch(context.Context, []adsketch.Request) ([]adsketch.Response, error) {
	return nil, fmt.Errorf("metaShard serves nothing")
}
