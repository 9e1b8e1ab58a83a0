// adsserver serves the adsketch wire query protocol over HTTP, for one
// sketch dataset or a whole catalog of them, in several topologies:
//
//	# single: one process, one whole sketch set
//	adstool gen -type ba -n 100000 -m 5 > graph.txt
//	adstool build -graph graph.txt -k 16 -seed 42 -save sketches.ads
//	adsserver -sketches sketches.ads -addr :8080
//
//	# partitioned, in-process: split into P shard engines behind one
//	# scatter-gather coordinator (same answers, P independent caches)
//	adsserver -sketches sketches.ads -partitions 4 -addr :8080
//
//	# distributed: one worker per partition file, plus a coordinator
//	adstool split -sketches sketches.ads -partitions 2 -out sketches
//	adsserver -sketches sketches.p0of2.ads -addr :8081 &
//	adsserver -sketches sketches.p1of2.ads -addr :8082 &
//	adsserver -workers http://localhost:8081,http://localhost:8082 -addr :8080
//
//	# multi-dataset: named datasets (one per snapshot, per k, per
//	# flavor), hot-swappable at runtime through the admin endpoints
//	adsserver -sketches today.ads -dataset yesterday=yday.ads \
//	          -dataset social-k64=social.v3.ads -mmap -addr :8080
//
// Every dataset resolves to a serving backend (-sketches and each
// -dataset load exactly as the single-file modes do); queries carry an
// optional "dataset" field naming which one answers (empty = the
// default dataset, i.e. -sketches).  POST /v1/datasets/{name} atomically
// publishes a rebuilt sketch file under a name with zero downtime:
// in-flight queries drain on the old version — whose mmap, if any, is
// unmapped only after its last reader releases — while new queries see
// the new version.
//
// A worker loading a partition file answers for the global node IDs it
// owns; the coordinator routes per-node queries by node ID, merges
// per-shard topk rankings, and evaluates cross-shard pairwise queries
// (jaccard, influence, distance_bound) from sketches fetched off the
// owning workers.  Coordinator answers are bit-for-bit identical to a
// single server over the unsplit set.
//
// Endpoints (all modes):
//
//	POST   /v1/query           — a single Request object, or an array of
//	                             Requests for a batch; answers with the
//	                             matching Response(s).
//	GET    /v1/meta            — default dataset's serving identity: node
//	                             range, partition position, sketch
//	                             parameters (what a coordinator dials).
//	GET    /v1/datasets        — catalog listing: per-dataset version,
//	                             ref counts, residency, cache stats.
//	POST   /v1/datasets/{name} — attach or hot-swap a dataset from a
//	                             server-side sketch file:
//	                             {"path": "...", "mmap": true}.
//	DELETE /v1/datasets/{name} — detach a dataset (in-flight queries
//	                             drain first).
//	POST   /v1/ingest/{name}   — with -ingest: apply a JSON edge batch
//	                             to the named streaming dataset, e.g.
//	                             {"edges":[{"u":0,"v":1}],"freeze":true};
//	                             frozen versions hot-swap into the
//	                             catalog every -freeze-every edges.
//	POST   /v1/build/{init,step,freeze}
//	                           — with -buildworker: act as one partition
//	                             of a distributed sketch construction;
//	                             the driver (adstool build -workers ...)
//	                             assigns a node range, exchanges frontier
//	                             candidates each round, and collects the
//	                             frozen partition file.
//	GET    /healthz            — liveness: {"status":"ok"} once serving.
//	GET    /statsz             — topology, default-dataset metadata,
//	                             catalog state, index-cache and scatter
//	                             counters, and request counters.
//
// Example:
//
//	curl -s localhost:8080/v1/query -d '{"closeness":{"nodes":[0,17]}}'
//	curl -s localhost:8080/v1/query -d '{"dataset":"yesterday","closeness":{"nodes":[0]}}'
//	curl -s -X POST localhost:8080/v1/datasets/default -d '{"path":"rebuilt.v3.ads","mmap":true}'
//
// On SIGINT/SIGTERM the server stops accepting connections, drains
// in-flight queries, then closes the catalog (releasing every mapped
// sketch file).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adsketch"
	"adsketch/internal/distbuild"
)

// datasetFlags collects repeatable -dataset name=path mappings.
type datasetFlags []string

func (d *datasetFlags) String() string { return strings.Join(*d, ",") }

func (d *datasetFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*d = append(*d, v)
	return nil
}

func main() {
	fs := flag.NewFlagSet("adsserver", flag.ExitOnError)
	sketchPath := fs.String("sketches", "", "sketch file served as the default dataset: a whole set or one partition (see adstool build -save / adstool split)")
	workers := fs.String("workers", "", "comma-separated worker base URLs to coordinate as the default dataset (instead of -sketches); join replicas of one partition with '|', e.g. http://a:8081|http://b:8081,http://a:8082")
	partitions := fs.Int("partitions", 0, "split -sketches into this many in-process shards behind a coordinator (0 = serve unsplit)")
	var datasets datasetFlags
	fs.Var(&datasets, "dataset", "additional named dataset as name=path (repeatable); query with {\"dataset\":\"name\", ...}")
	addr := fs.String("addr", ":8080", "listen address")
	useMmap := fs.Bool("mmap", false, "mmap sketch files instead of reading them in (near-zero startup; every file the tools write qualifies — a file of an earlier release is refused, and adsconvert rewrites it)")
	memBudget := fs.Int64("mem-budget", 0, "resident-memory budget in bytes for the catalog; idle file-backed datasets are evicted LRU and reload on demand (0 = unlimited)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight queries after SIGINT/SIGTERM")
	ingestOn := fs.Bool("ingest", false, "enable POST /v1/ingest/{dataset}: accept edge batches, maintain sketches incrementally, publish frozen versions into the catalog")
	freezeEvery := fs.Int("freeze-every", 1024, "freeze and publish an ingest dataset after this many edges (0 = only on explicit \"freeze\":true)")
	ingestK := fs.Int("ingest-k", 16, "bottom-k parameter of ingest-created datasets")
	ingestSeed := fs.Uint64("ingest-seed", 42, "rank seed of ingest-created datasets")
	ingestDirected := fs.Bool("ingest-directed", false, "treat ingested edges as directed arcs (default: undirected edges)")
	ingestDir := fs.String("ingest-dir", "", "persist each frozen ingest version as a v3 file under this directory and serve from it (with -mmap, via mmap); empty = publish in memory")
	ccfg := clusterDefaults()
	fs.DurationVar(&ccfg.dialTimeout, "dial-timeout", ccfg.dialTimeout, "per-attempt budget for fetching a worker's /v1/meta at startup")
	fs.IntVar(&ccfg.dialRetries, "dial-retries", ccfg.dialRetries, "extra dial attempts per worker before giving up")
	fs.DurationVar(&ccfg.shardTimeout, "shard-timeout", ccfg.shardTimeout, "per-attempt deadline the coordinator puts on each worker call (0 = none)")
	fs.IntVar(&ccfg.shardRetries, "shard-retries", ccfg.shardRetries, "extra retry rounds through a partition's replica chain on transient errors")
	fs.DurationVar(&ccfg.retryBackoff, "retry-backoff", ccfg.retryBackoff, "delay before the first shard retry (doubles per attempt, capped at 1s)")
	fs.DurationVar(&ccfg.hedgeDelay, "hedge-delay", ccfg.hedgeDelay, "send a hedged request to a partition replica after this wait (0 = off; needs '|' replicas in -workers)")
	fs.DurationVar(&ccfg.probeInterval, "probe-interval", ccfg.probeInterval, "poll every worker's /healthz on this interval, ejecting dead workers from rotation (0 = off)")
	faultInject := fs.Bool("fault-inject", false, "expose POST /debugz/fault to inject latency or unavailability into this server (load-testing only; never enable in production)")
	buildWorker := fs.Bool("buildworker", false, "enable the distributed-build worker endpoints POST /v1/build/{init,step,freeze}; a build driver (adstool build -workers ...) configures this process with its partition of an edge list and drives the construction rounds")
	fs.Parse(os.Args[1:])
	if *sketchPath == "" && *workers == "" && len(datasets) == 0 && !*ingestOn && !*buildWorker {
		fmt.Fprintln(os.Stderr, "adsserver: at least one of -sketches, -workers, -dataset, -ingest, or -buildworker is required")
		fs.Usage()
		os.Exit(2)
	}
	if !*ingestOn && (*ingestDir != "" || *freezeEvery != 1024 || *ingestK != 16 || *ingestSeed != 42 || *ingestDirected) {
		fmt.Fprintln(os.Stderr, "adsserver: -freeze-every/-ingest-k/-ingest-seed/-ingest-directed/-ingest-dir require -ingest")
		os.Exit(2)
	}
	if *ingestOn && (*freezeEvery < 0 || *ingestK < 2) {
		fmt.Fprintln(os.Stderr, "adsserver: want -freeze-every >= 0 and -ingest-k >= 2")
		os.Exit(2)
	}
	if *sketchPath != "" && *workers != "" {
		fmt.Fprintln(os.Stderr, "adsserver: -sketches and -workers both name the default dataset; use at most one")
		os.Exit(2)
	}
	if *partitions != 0 && *sketchPath == "" {
		fmt.Fprintln(os.Stderr, "adsserver: -partitions splits the -sketches file; it applies to neither -workers nor -dataset entries")
		os.Exit(2)
	}
	if *partitions < 0 {
		fmt.Fprintf(os.Stderr, "adsserver: -partitions %d is invalid; want >= 1 (or 0 to serve unsplit)\n", *partitions)
		os.Exit(2)
	}
	if *useMmap && *sketchPath == "" && len(datasets) == 0 && *ingestDir == "" {
		fmt.Fprintln(os.Stderr, "adsserver: -mmap applies to local sketch files (-sketches / -dataset / -ingest-dir), not to -workers")
		os.Exit(2)
	}
	if ccfg.dialTimeout < 0 || ccfg.dialRetries < 0 || ccfg.probeInterval < 0 {
		fmt.Fprintln(os.Stderr, "adsserver: -dial-timeout, -dial-retries, and -probe-interval must be >= 0")
		os.Exit(2)
	}
	if *workers == "" && (ccfg.hedgeDelay != 0 || ccfg.probeInterval != 0) {
		fmt.Fprintln(os.Stderr, "adsserver: -hedge-delay and -probe-interval apply to the -workers topology")
		os.Exit(2)
	}

	cat, pr, err := buildCatalog(*sketchPath, *workers, *partitions, *useMmap, datasets, *memBudget, ccfg)
	if err != nil {
		log.Fatalf("adsserver: %v", err)
	}
	if pr != nil {
		defer pr.halt()
		log.Printf("adsserver: health-probing %d worker(s) every %v", len(pr.shards), ccfg.probeInterval)
	}

	srv := newServer(cat)
	srv.prober = pr
	if *faultInject {
		srv.faultInject = true
		log.Printf("adsserver: fault injection enabled at POST /debugz/fault")
	}
	if *buildWorker {
		srv.build = distbuild.NewWorkerHandler()
		log.Printf("adsserver: distributed-build worker endpoints enabled at POST /v1/build/{init,step,freeze}")
	}
	if *ingestOn {
		srv.ing = newIngestManager(cat, ingestConfig{
			freezeEvery: *freezeEvery,
			k:           *ingestK,
			seed:        *ingestSeed,
			directed:    *ingestDirected,
			dir:         *ingestDir,
			mmap:        *useMmap,
		})
		log.Printf("adsserver: streaming ingest enabled (k=%d seed=%d directed=%v freeze-every=%d dir=%q)",
			*ingestK, *ingestSeed, *ingestDirected, *freezeEvery, *ingestDir)
	}
	cst := cat.Stats()
	if def := defaultDataset(&cst); def != nil && def.Meta != nil {
		log.Printf("adsserver: default dataset serves %s sketches (%s mode, nodes [%d, %d) of %d, k=%d)",
			def.Meta.Kind, def.Mode, def.Meta.Lo, def.Meta.Hi, def.Meta.TotalNodes, def.Meta.K)
	}
	log.Printf("adsserver: catalog holds %d dataset(s) %v on %s", len(cat.Datasets()), cat.Datasets(), *addr)

	httpSrv := &http.Server{
		Addr:         *addr,
		Handler:      srv.mux(),
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 60 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatalf("adsserver: %v", err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills hard
		log.Printf("adsserver: signal received; draining in-flight queries (up to %v)", *drainTimeout)
		shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(shCtx); err != nil {
			log.Printf("adsserver: shutdown: %v", err)
		}
		// With the listener closed and handlers drained, detaching every
		// dataset releases the backing sketch files (unmapping any mmap
		// regions) through the catalog's ref-counted handles.
		if err := cat.Close(); err != nil {
			log.Printf("adsserver: closing catalog: %v", err)
		}
		log.Printf("adsserver: shutdown complete")
	}
}

// buildCatalog assembles the serving catalog: the default dataset from
// -sketches (optionally partitioned, optionally mmap'd) or -workers, and
// one named dataset per -dataset name=path.  The returned prober is
// non-nil only for a -workers topology with -probe-interval set.
func buildCatalog(sketchPath, workers string, partitions int, useMmap bool, datasets []string,
	memBudget int64, ccfg clusterConfig) (*adsketch.Catalog, *prober, error) {
	cat, err := adsketch.NewCatalog(adsketch.WithMemoryBudget(memBudget))
	if err != nil {
		return nil, nil, err
	}
	if sketchPath != "" {
		src := fileSource(sketchPath, useMmap)
		if partitions > 1 {
			src = src.WithPartitions(partitions)
		}
		if err := cat.Attach(adsketch.DefaultDataset, src); err != nil {
			return nil, nil, err
		}
	}
	var pr *prober
	if workers != "" {
		be, workerProber, err := dialWorkers(strings.Split(workers, ","), ccfg)
		if err != nil {
			return nil, nil, err
		}
		if err := cat.Attach(adsketch.DefaultDataset, adsketch.BackendSource(be)); err != nil {
			return nil, nil, err
		}
		pr = workerProber
	}
	for _, spec := range datasets {
		name, path, _ := strings.Cut(spec, "=")
		if err := cat.Attach(name, fileSource(path, useMmap)); err != nil {
			return nil, nil, fmt.Errorf("dataset %q: %w", name, err)
		}
	}
	return cat, pr, nil
}

// fileSource picks the load strategy for a sketch file path.
func fileSource(path string, useMmap bool) adsketch.Source {
	if useMmap {
		return adsketch.MmapSource(path)
	}
	return adsketch.FileSource(path)
}

// dialWorkers connects to every worker and assembles the coordinator.
// Each comma-separated element names one partition; '|' inside an
// element joins the partition's replicas (first URL is the primary).
// With cfg.probeInterval set, every worker is health-probed and dead
// ones are ejected from rotation until they answer /healthz again.
func dialWorkers(specs []string, cfg clusterConfig) (adsketch.ShardBackend, *prober, error) {
	groups := make([][]adsketch.ShardBackend, 0, len(specs))
	var probed []*probedShard
	for _, spec := range specs {
		var group []adsketch.ShardBackend
		for _, u := range strings.Split(spec, "|") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			s, err := dialShard(u, cfg)
			if err != nil {
				return nil, nil, err
			}
			role := "replica"
			if len(group) == 0 {
				role = "primary"
			}
			log.Printf("adsserver: worker %s serves partition %d/%d (nodes [%d, %d) of %d, %s)",
				u, s.meta.Index, s.meta.Count, s.meta.Lo, s.meta.Hi, s.meta.TotalNodes, role)
			p := newProbedShard(s)
			probed = append(probed, p)
			group = append(group, p)
		}
		if len(group) > 0 {
			groups = append(groups, group)
		}
	}
	be, err := adsketch.NewReplicatedCoordinator(groups, cfg.coordinatorOptions()...)
	if err != nil {
		return nil, nil, err
	}
	var pr *prober
	if cfg.probeInterval > 0 {
		pr = startProber(probed, cfg.probeInterval)
	}
	return be, pr, nil
}
