package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"adsketch"
	"adsketch/internal/distbuild"
)

// build_offline: the batch side of a deployment.  The pipeline
// repetitions take the first 55% of the measured window (never fewer
// than sizes.reps of them); the distributed builds, the cold opens and
// the accuracy pass are fixed counts after them.
const buildShare = 0.55

func runBuildOffline(e *env, c config, r *result) error {
	m := r.metrics
	// Set-up: generate the graph, write the edge list, compute the exact
	// answers.
	var exact *truth
	edgePath, sketchPath := e.path("graph.txt"), e.path("sketches.v3")
	setups, err := timeEach(setupRepeats, func() error {
		g := adsketch.PreferentialAttachment(c.sz.n, graphM, graphSeed)
		exact = exactTruth(g, c.seed, c.sz.sample)
		return writeEdgeList(edgePath, g)
	})
	if err != nil {
		return err
	}
	m["setup_s"] = median(setups) / 1e9

	// Edge list -> ReadEdgeList -> Build -> WriteSketchSetV3, repeated.
	var walls []float64
	var built *builtSet
	for start := time.Now(); len(walls) < c.sz.reps || time.Since(start) < c.window(buildShare); {
		b, err := buildPipeline(c.tr, edgePath, sketchPath)
		if err != nil {
			return err
		}
		built = b
		walls = append(walls, b.wall.Seconds())
	}
	r.count(len(walls))
	m["e2e.build_edges_per_s"] = float64(built.edges) / median(walls)
	m["sketch_bytes_per_node"] = float64(built.bytes) / float64(c.sz.n)
	e.log("build: %d repetitions of %d edges: %.3f s, median %.3fs", len(walls), built.edges, walls, median(walls))

	if err := distBuild(e, c, r); err != nil {
		return err
	}

	// Cold open: mmap -> NewEngine -> first top-k answer.
	topk := topKRequest()
	ctx := context.Background()
	cold, err := timeEach(c.sz.coldOpens, func() error {
		root := c.tr.begin("cold_open", -1, -1)
		defer c.tr.end(root)
		sp := c.tr.begin("core.mmap_v3", root, -1)
		sf, err := adsketch.MmapSketchFile(sketchPath)
		c.tr.end(sp)
		if err != nil {
			return err
		}
		defer sf.Close()
		eng, err := adsketch.NewEngine(sf.Set())
		if err != nil {
			return err
		}
		sp = c.tr.begin("engine.first_topk", root, -1)
		_, err = eng.Do(ctx, topk)
		c.tr.end(sp)
		return err
	})
	if err != nil {
		return fmt.Errorf("cold open: %w", err)
	}
	r.count(c.sz.coldOpens)
	m["e2e.cold_open_ms"] = median(cold) / 1e6
	e.log("cold open: %d repetitions, median %.1fms", len(cold), m["e2e.cold_open_ms"])

	// Accuracy of the file as written, through the engine.
	sf, err := adsketch.MmapSketchFile(sketchPath)
	if err != nil {
		return err
	}
	defer sf.Close()
	eng, err := adsketch.NewEngine(sf.Set())
	if err != nil {
		return err
	}
	engDo := backendDo(eng)
	var requests int
	if m["closeness_nrmse"], m["neighborhood_nrmse"], requests, err = exact.accuracy(engDo, sketchK); err != nil {
		return err
	}
	r.count(requests)
	if c.tr == nil {
		return nil
	}

	totals := selfTimes(c.tr.snapshot())
	for span, metric := range map[string]string{"graph.parse": "graph.parse_s", "core.build": "core.build_s", "core.write_v3": "core.write_v3_s"} {
		m[metric] = median(totals[span].Durs) / 1e9
	}
	m["core.build_entries"] = float64(built.set.TotalEntries())
	m["core.build_alloc_mb"] = built.allocMB
	if err := traceOverhead(c, r, stream{seed: c.seed, mix: pointTraffic, n: c.sz.n}, engDo); err != nil {
		return err
	}
	if err := inprocLadder(c, r, sketchPath); err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	return nil
}

// timedExchanger wraps one distributed-build worker and times its
// Init/Step/Freeze calls.  The driver calls one worker from one
// goroutine at a time, so the fields need no lock.
type timedExchanger struct {
	inner              distbuild.Exchanger
	tr                 *tracer
	parent, worker     int
	init, step, freeze time.Duration
}

func (t *timedExchanger) timed(name string, total *time.Duration, fn func() error) error {
	sp := t.tr.begin(name, t.parent, t.worker)
	start := time.Now()
	err := fn()
	*total += time.Since(start)
	t.tr.end(sp)
	return err
}

func (t *timedExchanger) Init(ctx context.Context) (out [][]distbuild.Candidate, err error) {
	err = t.timed("distbuild.init", &t.init, func() error { out, err = t.inner.Init(ctx); return err })
	return out, err
}

func (t *timedExchanger) Step(ctx context.Context, round int, inbox []distbuild.Candidate) (out [][]distbuild.Candidate, err error) {
	err = t.timed("distbuild.step", &t.step, func() error { out, err = t.inner.Step(ctx, round, inbox); return err })
	return out, err
}

func (t *timedExchanger) Freeze(ctx context.Context) (out []byte, err error) {
	err = t.timed("distbuild.freeze", &t.freeze, func() error { out, err = t.inner.Freeze(ctx); return err })
	return out, err
}

// runDist runs one in-process distributed build over parts workers and
// returns its result, wall time, and the timed workers.
func runDist(tr *tracer, spec distbuild.Spec, parts int) (*distbuild.Result, time.Duration, []*timedExchanger, error) {
	spec.Parts = parts
	start := time.Now()
	root := tr.begin("distbuild.run", -1, -1)
	defer tr.end(root)
	inner, err := distbuild.NewLocalExchangers(spec)
	if err != nil {
		return nil, 0, nil, err
	}
	timed := make([]*timedExchanger, parts)
	exs := make([]distbuild.Exchanger, parts)
	for i := range inner {
		timed[i] = &timedExchanger{inner: inner[i], tr: tr, parent: root, worker: i}
		exs[i] = timed[i]
	}
	res, err := distbuild.Run(context.Background(), exs)
	return res, time.Since(start), timed, err
}

// distBuild is the distributed-build phase: sizes.reps two-worker
// in-process builds, each checked byte for byte against SplitSketchSet
// of a single-process Build, and in the traced run a one-worker build
// as the single-threaded baseline.
func distBuild(e *env, c config, r *result) error {
	m := r.metrics
	g := adsketch.PreferentialAttachment(c.sz.distN, graphM, graphSeed)
	path := e.path("dist-graph.txt")
	if err := writeEdgeList(path, g); err != nil {
		return err
	}
	spec := distbuild.Spec{Path: path, N: c.sz.distN, K: sketchK, Seed: rankSeed, Kind: distbuild.KindUniform}
	set, err := adsketch.Build(g, adsketch.WithK(sketchK), adsketch.WithSeed(rankSeed))
	if err != nil {
		return err
	}
	const parts = 2
	split, err := adsketch.SplitSketchSet(set, parts)
	if err != nil {
		return err
	}
	want := make([][]byte, parts)
	for i, p := range split {
		var buf bytes.Buffer
		if _, err := adsketch.WritePartitionV3(&buf, p); err != nil {
			return err
		}
		want[i] = buf.Bytes()
	}

	var walls []float64
	var res *distbuild.Result
	var workers []*timedExchanger
	for rep := 0; rep < c.sz.reps; rep++ {
		var wall time.Duration
		if res, wall, workers, err = runDist(c.tr, spec, parts); err != nil {
			return err
		}
		for i := range want {
			if !bytes.Equal(want[i], res.Partitions[i]) {
				return fmt.Errorf("distbuild: partition %d of %d differs from SplitSketchSet of a single-process Build", i, parts)
			}
		}
		walls = append(walls, wall.Seconds())
	}
	r.count(len(walls))
	m["e2e.distbuild_edges_per_s"] = float64(g.NumEdges()) / median(walls)
	e.log("distbuild: %d repetitions on %d nodes: %.3f s; %d rounds, %d candidates, partitions byte-identical to SplitSketchSet",
		len(walls), c.sz.distN, walls, res.Rounds, res.Candidates)
	if c.tr == nil {
		return nil
	}

	// Layer metrics, from the last repetition.
	wall := walls[len(walls)-1]
	var busy time.Duration
	for _, w := range workers {
		m["distbuild.init_s"] += w.init.Seconds() / parts
		m["distbuild.step_s"] += w.step.Seconds() / parts
		m["distbuild.freeze_s"] += w.freeze.Seconds() / parts
		busy += w.init + w.step + w.freeze
	}
	m["distbuild.rounds"] = float64(res.Rounds)
	m["distbuild.candidates"] = float64(res.Candidates)
	m["distbuild.worker_busy_ratio"] = busy.Seconds() / (parts * wall)
	m["distbuild.barrier_wait_s"] = wall - busy.Seconds()/parts
	_, p1, _, err := runDist(c.tr, spec, 1)
	if err != nil {
		return err
	}
	r.count(1)
	m["distbuild.p1_wall_s"] = p1.Seconds()
	return nil
}
