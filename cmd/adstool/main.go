// adstool builds All-Distances Sketches for an edge-list graph and answers
// centrality queries from them.
//
// Usage:
//
//	adstool gen   -type ba -n 10000 -m 5 -seed 1 > graph.txt
//	adstool stats -graph graph.txt
//	adstool build -graph graph.txt -k 16 -seed 42 -save sketches.ads
//	adstool build -graph graph.txt -k 16 -seed 42 -eps 0.25 -dist 4 -out sketches
//	adstool split -sketches sketches.ads -partitions 4 -out sketches
//	adstool merge -out sketches.ads sketches.p0of4.ads sketches.p1of4.ads ...
//	adstool info sketches.ads
//	adstool query -graph graph.txt -sketches sketches.ads -node 17 -d 3
//	adstool query -remote http://localhost:8080 -node 17 -d 3
//	adstool query -remote http://localhost:8080 -dataset nightly -node 17 -d 3
//	adstool ingest -remote http://localhost:8080 -dataset live -graph stream.txt -batch 512
//	adstool top   -graph graph.txt -k 16 -seed 42 -top 10
//	adstool influence -graph graph.txt -k 16 -seeds 3 -d 2
//
// split partitions a sketch file by node ID into P independently
// servable shard files (one adsserver worker each); merge reassembles a
// complete split bit-for-bit.  Every subcommand reads and writes the one
// current file layout; adsconvert rewrites a file of an earlier release
// in it.  Graphs are whitespace edge lists ("u v" or "u v w" per line, '#' comments); "-"
// reads stdin.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"adsketch"
	"adsketch/internal/atomicfile"
	"adsketch/internal/core"
	"adsketch/internal/graph"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "gen":
		err = runGen(args)
	case "stats":
		err = runStats(args)
	case "build":
		err = runBuild(args)
	case "split":
		err = runSplit(args)
	case "merge":
		err = runMerge(args)
	case "info":
		err = runInfo(args)
	case "query":
		err = runQuery(args)
	case "ingest":
		err = runIngest(args)
	case "top":
		err = runTop(args)
	case "influence":
		err = runInfluence(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "adstool:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: adstool {gen|stats|build|split|merge|info|query|ingest|top|influence} [flags]")
	os.Exit(2)
}

func loadGraph(path string, directed bool) (*adsketch.Graph, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return adsketch.ReadEdgeList(r, directed)
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	typ := fs.String("type", "ba", "graph type: ba, gnp, grid, ws, tree")
	n := fs.Int("n", 1000, "nodes")
	m := fs.Int("m", 3, "edges per node (ba) / lattice degree (ws)")
	p := fs.Float64("p", 0.01, "edge probability (gnp) / rewiring (ws)")
	seed := fs.Uint64("seed", 1, "generator seed")
	fs.Parse(args)
	var g *adsketch.Graph
	switch *typ {
	case "ba":
		g = adsketch.PreferentialAttachment(*n, *m, *seed)
	case "gnp":
		g = adsketch.GNP(*n, *p, false, *seed)
	case "grid":
		side := 1
		for side*side < *n {
			side++
		}
		g = adsketch.Grid(side, side)
	case "ws":
		g = adsketch.WattsStrogatz(*n, *m, *p, *seed)
	case "tree":
		g = adsketch.RandomTree(*n, *seed)
	default:
		return fmt.Errorf("unknown graph type %q", *typ)
	}
	return adsketch.WriteEdgeList(os.Stdout, g)
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	path := fs.String("graph", "-", "edge list path")
	directed := fs.Bool("directed", false, "treat edges as directed")
	fs.Parse(args)
	g, err := loadGraph(*path, *directed)
	if err != nil {
		return err
	}
	_, comps := graph.ConnectedComponents(g)
	fmt.Printf("nodes      %d\n", g.NumNodes())
	fmt.Printf("edges      %d\n", g.NumEdges())
	fmt.Printf("directed   %v\n", g.Directed())
	fmt.Printf("weighted   %v\n", g.Weighted())
	fmt.Printf("components %d\n", comps)
	return nil
}

// buildFlags registers the sketch-construction flags shared by the
// build/query/top/influence subcommands; the returned function resolves
// them into the functional options of adsketch.Build.
func buildFlags(fs *flag.FlagSet) (path *string, directed *bool, opts func() ([]adsketch.Option, error)) {
	path = fs.String("graph", "-", "edge list path")
	directed = fs.Bool("directed", false, "treat edges as directed")
	k := fs.Int("k", 16, "sketch parameter")
	seed := fs.Uint64("seed", 42, "rank seed")
	baseB := fs.Float64("baseb", 0, "base-b rank rounding (> 1; 0 = full precision)")
	weights := fs.String("weights", "", "comma-separated per-node weights (Section 9)")
	priority := fs.Bool("priority", false, "priority (Sequential Poisson) ranks for -weights")
	opts = func() ([]adsketch.Option, error) {
		out := []adsketch.Option{adsketch.WithK(*k), adsketch.WithSeed(*seed)}
		if *baseB != 0 {
			out = append(out, adsketch.WithBaseB(*baseB))
		}
		if *weights != "" {
			var beta []float64
			for _, f := range strings.Split(*weights, ",") {
				w, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
				if err != nil {
					return nil, fmt.Errorf("bad -weights entry %q: %v", f, err)
				}
				beta = append(beta, w)
			}
			out = append(out, adsketch.WithNodeWeights(beta))
		}
		if *priority {
			out = append(out, adsketch.WithPriorityRanks())
		}
		return out, nil
	}
	return
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	path, directed, opts := buildFlags(fs)
	eps := fs.Float64("eps", -1, "(1+eps)-approximate construction (>= 0 enables; distributed builds only)")
	save := fs.String("save", "", "write the sketch set to this file")
	dist := fs.Int("dist", 0, "distributed build across this many in-process partition workers; writes one partition file per worker under -out")
	workers := fs.String("workers", "", "comma-separated adsserver -buildworker base URLs; distributed build with one remote worker per partition, edge list read from each worker's own filesystem")
	out := fs.String("out", "", "output prefix of distributed-build partition files (<out>.p<i>of<P>.ads); required with -dist/-workers")
	fs.Parse(args)
	if *dist != 0 || *workers != "" {
		return runDistBuild(fs, *path, *directed, *dist, *workers, *out)
	}
	if *eps >= 0 {
		return fmt.Errorf("build: -eps builds (1+eps)-approximate sketches in a distributed build only; add -dist P or -workers URLs (lab.BuildApprox builds them in process)")
	}
	if *out != "" {
		return fmt.Errorf("build: -out applies to distributed builds (-dist/-workers); use -save for a whole-set build")
	}
	g, err := loadGraph(*path, *directed)
	if err != nil {
		return err
	}
	bo, err := opts()
	if err != nil {
		return err
	}
	start := time.Now()
	set, err := adsketch.Build(g, bo...)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("built sketches (k=%d) for %d nodes in %v\n",
		set.K(), g.NumNodes(), elapsed.Round(time.Millisecond))
	fmt.Printf("total entries %d (%.1f per node; Lemma 2.2 predicts ~k(1+ln n-ln k))\n",
		set.TotalEntries(), float64(set.TotalEntries())/float64(g.NumNodes()))
	if *save != "" {
		n, err := atomicfile.Write(*save, set.WriteTo)
		if err != nil {
			return err
		}
		fmt.Printf("sketches saved to %s (%d bytes, format v%d)\n", *save, n, adsketch.SketchFormatVersion)
	}
	return nil
}

// runSplit partitions a sketch file by node ID into independently
// servable shard files.
func runSplit(args []string) error {
	fs := flag.NewFlagSet("split", flag.ExitOnError)
	sketchPath := fs.String("sketches", "", "sketch file to split (required)")
	partitions := fs.Int("partitions", 2, "number of node-range partitions")
	out := fs.String("out", "", "output prefix (default: -sketches without its extension)")
	fs.Parse(args)
	if *sketchPath == "" {
		return fmt.Errorf("split: -sketches is required")
	}
	prefix := *out
	if prefix == "" {
		prefix = strings.TrimSuffix(*sketchPath, ".ads")
	}
	f, err := os.Open(*sketchPath)
	if err != nil {
		return err
	}
	set, err := adsketch.ReadSketchSet(f)
	f.Close()
	if err != nil {
		return err
	}
	parts, err := adsketch.SplitSketchSet(set, *partitions)
	if err != nil {
		return err
	}
	for _, p := range parts {
		index, count := p.Part()
		name := fmt.Sprintf("%s.p%dof%d.ads", prefix, index, count)
		n, err := atomicfile.Write(name, p.WriteTo)
		if err != nil {
			return err
		}
		fmt.Printf("partition %d/%d: nodes [%d, %d) -> %s (%d bytes)\n",
			index, count, p.Lo(), p.Hi(), name, n)
	}
	return nil
}

// runMerge reassembles a complete split back into one sketch file.
func runMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	out := fs.String("out", "", "output sketch file (required)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("merge: -out is required")
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("merge: no partition files given")
	}
	parts := make([]*adsketch.Set, 0, fs.NArg())
	for _, name := range fs.Args() {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		p, err := adsketch.ReadSketchSet(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		parts = append(parts, p)
	}
	set, err := adsketch.MergeSketchSets(parts)
	if err != nil {
		return err
	}
	n, err := atomicfile.Write(*out, set.WriteTo)
	if err != nil {
		return err
	}
	fmt.Printf("merged %d partitions (%d nodes, k=%d) -> %s (%d bytes)\n",
		len(parts), set.NumNodes(), set.K(), *out, n)
	return nil
}

// runInfo prints a sketch file's codec and set metadata without serving
// it: version, kind, parameters, sizes, and the partition header for
// kind-3 shard files.
func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("info: usage: adstool info <file>")
	}
	path := fs.Arg(0)
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	sf, err := adsketch.OpenSketchFile(path)
	if err != nil {
		return err
	}
	defer sf.Close()
	set := sf.Set()
	fmt.Printf("file            %s\n", path)
	fmt.Printf("bytes           %d\n", st.Size())
	fmt.Printf("codec version   %d\n", adsketch.SketchFormatVersion)
	p := set.Params()
	fmt.Printf("kind            %v\n", p.Kind)
	fmt.Printf("k               %d\n", p.K)
	fmt.Printf("seed            %d\n", p.Seed)
	switch p.Kind {
	case core.KindUniform:
		if p.BaseB != 0 {
			fmt.Printf("base-b          %g\n", p.BaseB)
		} else {
			fmt.Printf("base-b          full precision\n")
		}
	case core.KindWeighted:
		fmt.Printf("scheme          %v\n", p.Scheme)
	case core.KindApprox:
		fmt.Printf("epsilon         %g\n", p.Eps)
	}
	if set.IsPartition() {
		index, count := set.Part()
		fmt.Printf("partition       %d of %d\n", index, count)
		fmt.Printf("node range      [%d, %d)\n", set.Lo(), set.Hi())
		fmt.Printf("total nodes     %d\n", set.TotalNodes())
	}
	nodes, entries := set.NumNodes(), set.TotalEntries()
	fmt.Printf("nodes           %d\n", nodes)
	fmt.Printf("total entries   %d\n", entries)
	if nodes > 0 {
		fmt.Printf("entries/node    %.1f\n", float64(entries)/float64(nodes))
		fmt.Printf("bytes/node      %.1f\n", float64(st.Size())/float64(nodes))
	}
	cols := sf.ColumnBytes()
	fmt.Printf("offsets         packed (%d bits)\n", sf.OffsetBits())
	if steps, distinct := sf.DistanceSteps(); nodes > 0 {
		over := ""
		if distinct > 0 {
			over = fmt.Sprintf(" over %d values", distinct)
		}
		fmt.Printf("distances       steps (%.1f/node)%s\n", float64(steps)/float64(nodes), over)
	}
	fmt.Printf("node IDs        Rice-coded (%.2f bits/entry)\n", sf.NodeBitsPerEntry())
	fmt.Printf("columns\n")
	for _, c := range cols {
		fmt.Printf("  %-13s %d\n", c.Name, c.Bytes)
	}
	return nil
}

// loadOrBuild returns the whole set of -sketches when given, else builds.
func loadOrBuild(sketchPath string, g *adsketch.Graph, opts func() ([]adsketch.Option, error)) (*adsketch.Set, error) {
	if sketchPath != "" {
		f, err := os.Open(sketchPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		set, err := adsketch.ReadSketchSet(f)
		if err == nil && set.IsPartition() {
			index, count := set.Part()
			return nil, fmt.Errorf("%s holds partition %d of a %d-way sketch set split; merge the partitions (adstool merge)", sketchPath, index, count)
		}
		return set, err
	}
	bo, err := opts()
	if err != nil {
		return nil, err
	}
	return adsketch.Build(g, bo...)
}

func runInfluence(args []string) error {
	fs := flag.NewFlagSet("influence", flag.ExitOnError)
	path, directed, opts := buildFlags(fs)
	seeds := fs.Int("seeds", 3, "number of influence seeds to pick")
	d := fs.Float64("d", 2, "influence radius")
	sketchPath := fs.String("sketches", "", "load sketches from file instead of building")
	fs.Parse(args)
	g, err := loadGraph(*path, *directed)
	if err != nil {
		return err
	}
	set, err := loadOrBuild(*sketchPath, g, opts)
	if err != nil {
		return err
	}
	if set.Params().Kind != core.KindUniform {
		return fmt.Errorf("influence requires uniform-rank (coordinated) bottom-k sketches")
	}
	chosen, coverage := adsketch.GreedyInfluenceSeeds(set, nil, *seeds, *d)
	fmt.Printf("greedy %d-seed set for radius %g: %v\n", *seeds, *d, chosen)
	fmt.Printf("estimated union coverage: %.1f nodes (%.1f%% of graph)\n",
		coverage, 100*coverage/float64(g.NumNodes()))
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	path, directed, opts := buildFlags(fs)
	nodes := fs.String("node", "0", "query node(s), comma-separated")
	d := fs.Float64("d", 2, "query distance")
	sketchPath := fs.String("sketches", "", "load sketches from file instead of building")
	remote := fs.String("remote", "", "query a running adsserver at this base URL instead of evaluating locally")
	dataset := fs.String("dataset", "", "with -remote: the named catalog dataset to query (empty = the server's default dataset)")
	fs.Parse(args)
	if *remote != "" {
		// Remote mode answers from the server's sketch files; refuse local
		// graph/build flags rather than silently ignoring them.
		var conflicting []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "remote", "node", "d", "dataset":
			default:
				conflicting = append(conflicting, "-"+f.Name)
			}
		})
		if len(conflicting) > 0 {
			return fmt.Errorf("-remote queries the server's sketches; %s have no effect (drop them)", strings.Join(conflicting, ", "))
		}
	} else if *dataset != "" {
		return fmt.Errorf("-dataset names a server-side catalog dataset; it requires -remote")
	}
	var vs []int32
	for _, f := range strings.Split(*nodes, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 32)
		if err != nil {
			return fmt.Errorf("bad -node entry %q: %v", f, err)
		}
		vs = append(vs, int32(v))
	}
	// The four metric batches, as one protocol batch.  Locally they go
	// through Engine.DoBatch; remotely the same values cross the wire to
	// an adsserver, which answers from its own loaded sketch file.
	// An infinite -d means "everything reachable", which the wire shape
	// spells Unbounded (JSON cannot carry +Inf).
	sizesQ := &adsketch.NeighborhoodQuery{Radius: *d, Nodes: vs}
	if math.IsInf(*d, 1) {
		sizesQ.Radius, sizesQ.Unbounded = 0, true
	}
	reqs := []adsketch.Request{
		{ID: "sizes", Dataset: *dataset, Neighborhood: sizesQ},
		{ID: "reach", Dataset: *dataset, Neighborhood: &adsketch.NeighborhoodQuery{Unbounded: true, Nodes: vs}},
		{ID: "closeness", Dataset: *dataset, Closeness: &adsketch.ClosenessQuery{Nodes: vs}},
		{ID: "harmonic", Dataset: *dataset, Harmonic: &adsketch.HarmonicQuery{Nodes: vs}},
	}
	var resps []adsketch.Response
	if *remote != "" {
		var err error
		if resps, err = postQueryBatch(*remote, reqs); err != nil {
			return err
		}
		if *dataset != "" {
			fmt.Printf("remote %s, dataset %q, one request batch:\n", *remote, *dataset)
		} else {
			fmt.Printf("remote %s, one request batch:\n", *remote)
		}
	} else {
		g, err := loadGraph(*path, *directed)
		if err != nil {
			return err
		}
		set, err := loadOrBuild(*sketchPath, g, opts)
		if err != nil {
			return err
		}
		eng, err := adsketch.NewEngine(set)
		if err != nil {
			return err
		}
		if resps, err = eng.DoBatch(context.Background(), reqs); err != nil {
			return err
		}
		fmt.Printf("k=%d, one batch per metric, %d cached indices:\n", set.K(), eng.CacheStats().Built)
	}
	byID := make(map[string]adsketch.Response, len(resps))
	for _, r := range resps {
		if r.Error != "" {
			return fmt.Errorf("query %s: %s", r.ID, r.Error)
		}
		byID[r.ID] = r
	}
	for _, id := range []string{"sizes", "reach", "closeness", "harmonic"} {
		if len(byID[id].Scores) != len(vs) {
			return fmt.Errorf("query %s: got %d scores for %d nodes", id, len(byID[id].Scores), len(vs))
		}
	}
	for i, v := range vs {
		fmt.Printf("node %d:\n", v)
		fmt.Printf("  |N_%g|      %.1f\n", *d, byID["sizes"].Scores[i])
		fmt.Printf("  reachable   %.1f\n", byID["reach"].Scores[i])
		fmt.Printf("  closeness   %.4e\n", byID["closeness"].Scores[i])
		fmt.Printf("  harmonic    %.1f\n", byID["harmonic"].Scores[i])
	}
	return nil
}

// runIngest replays an edge-list file (SNAP-style "u v [w]" lines, '#'
// or '%' comments; "-" reads stdin) against a running adsserver's
// streaming-ingest endpoint, in batched POSTs to /v1/ingest/{dataset}.
// The server maintains the dataset's sketches incrementally and
// hot-swaps a frozen version into its catalog every -freeze-every edges
// (a server-side setting); -freeze forces one final publish so the tail
// of the stream is queryable immediately.
func runIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	remote := fs.String("remote", "", "base URL of a running adsserver started with -ingest (required)")
	dataset := fs.String("dataset", "", "catalog dataset to ingest into (required)")
	path := fs.String("graph", "-", "edge list to replay; \"-\" reads stdin")
	batch := fs.Int("batch", 512, "edges per POST")
	freeze := fs.Bool("freeze", true, "freeze and publish after the final batch")
	fs.Parse(args)
	if *remote == "" || *dataset == "" {
		return fmt.Errorf("ingest: -remote and -dataset are required")
	}
	if *batch < 1 {
		return fmt.Errorf("ingest: -batch %d is invalid; want >= 1", *batch)
	}
	var r io.Reader = os.Stdin
	if *path != "-" {
		f, err := os.Open(*path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	url := strings.TrimSuffix(*remote, "/") + "/v1/ingest/" + *dataset
	client := &http.Client{Timeout: 5 * time.Minute}

	type wireEdge struct {
		U int32   `json:"u"`
		V int32   `json:"v"`
		W float64 `json:"w,omitempty"`
	}
	type ingestBody struct {
		Edges  []wireEdge `json:"edges"`
		Freeze bool       `json:"freeze,omitempty"`
	}
	type ingestResult struct {
		Accepted int   `json:"accepted"`
		Pending  int64 `json:"pending_edges"`
		Freezes  int64 `json:"freezes"`
		Version  int   `json:"version"`
	}
	var last ingestResult
	post := func(b ingestBody) error {
		payload, err := json.Marshal(b)
		if err != nil {
			return err
		}
		httpResp, err := client.Post(url, "application/json", bytes.NewReader(payload))
		if err != nil {
			return err
		}
		defer httpResp.Body.Close()
		out, err := io.ReadAll(io.LimitReader(httpResp.Body, 1<<20))
		if err != nil {
			return err
		}
		if httpResp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: %s: %s", url, httpResp.Status, strings.TrimSpace(string(out)))
		}
		return json.Unmarshal(out, &last)
	}

	start := time.Now()
	sent, batches := 0, 0
	buf := make([]wireEdge, 0, *batch)
	flush := func(final bool) error {
		if len(buf) == 0 && !(final && *freeze) {
			return nil
		}
		if err := post(ingestBody{Edges: buf, Freeze: final && *freeze}); err != nil {
			return err
		}
		sent += len(buf)
		batches++
		buf = buf[:0]
		return nil
	}
	err := graph.ScanEdges(r, func(u, v int32, w float64, hasW bool) error {
		e := wireEdge{U: u, V: v}
		if hasW {
			e.W = w
		}
		buf = append(buf, e)
		if len(buf) >= *batch {
			return flush(false)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := flush(true); err != nil {
		return err
	}
	elapsed := time.Since(start)
	rate := float64(sent) / elapsed.Seconds()
	fmt.Printf("ingested %d edges in %d batch(es) into %q in %v (%.0f edges/s)\n",
		sent, batches, *dataset, elapsed.Round(time.Millisecond), rate)
	fmt.Printf("server: %d freeze(s) published, version %d, %d edge(s) pending\n",
		last.Freezes, last.Version, last.Pending)
	return nil
}

// postQueryBatch sends a protocol batch to an adsserver and decodes the
// responses.
func postQueryBatch(base string, reqs []adsketch.Request) ([]adsketch.Response, error) {
	body, err := json.Marshal(reqs)
	if err != nil {
		return nil, err
	}
	url := strings.TrimSuffix(base, "/") + "/v1/query"
	client := &http.Client{Timeout: 60 * time.Second}
	httpResp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(httpResp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", url, httpResp.Status, strings.TrimSpace(string(payload)))
	}
	var resps []adsketch.Response
	if err := json.Unmarshal(payload, &resps); err != nil {
		return nil, fmt.Errorf("%s: decoding responses: %v", url, err)
	}
	return resps, nil
}

func runTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	path, directed, opts := buildFlags(fs)
	top := fs.Int("top", 10, "ranking size")
	sketchPath := fs.String("sketches", "", "load sketches from file instead of building")
	fs.Parse(args)
	g, err := loadGraph(*path, *directed)
	if err != nil {
		return err
	}
	set, err := loadOrBuild(*sketchPath, g, opts)
	if err != nil {
		return err
	}
	eng, err := adsketch.NewEngine(set)
	if err != nil {
		return err
	}
	ranked, err := eng.TopCloseness(context.Background(), *top)
	if err != nil {
		return err
	}
	fmt.Printf("top %d by estimated closeness:\n", *top)
	for i, r := range ranked {
		fmt.Printf("%3d. node %-8d %.4e\n", i+1, r.Node, r.Score)
	}
	return nil
}
