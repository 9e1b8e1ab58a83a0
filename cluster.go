package adsketch

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"adsketch/internal/cluster"
	"adsketch/internal/core"
	"adsketch/internal/query"
)

// The scatter-gather serving tier.  A sketch set split by node ID into P
// partitions (SplitSketchSet) is served by P shard engines — in-process
// (NewPartitionedEngine), or remote adsserver workers each loading one
// partition file — behind one Coordinator that fans each protocol query
// out to the shards that can answer it and merges the partials:
//
//   - per-node queries (closeness, harmonic, neighborhood,
//     centrality_kernel) route each node to its owning shard and
//     reassemble the scores in request order;
//   - topk scatters to every shard and merges the per-shard rankings
//     with the single-set ordering (score descending, node ascending);
//   - the pairwise coordinated queries (jaccard, influence,
//     distance_bound) fetch the sketches they read from the owning
//     shards and evaluate at the coordinator, since their endpoints may
//     live on different shards.
//
// All three ride one planner: a batch sends each consulted shard one
// multi-request frame, and one merge applies the failure policy to every
// kind.  Every merge reproduces the single-set evaluation exactly, so a
// coordinator answer is bit-for-bit identical to one Engine over the
// unpartitioned set.

// Names of sketch set kinds in serving metadata (ShardMeta.Kind).
const (
	KindUniform     = "uniform"
	KindWeighted    = "weighted"
	KindApproximate = "approximate"
)

// ShardMeta identifies what one serving backend holds: its position in
// the split, the global node range it owns, and the sketch parameters.
// It is the payload of the adsserver /v1/meta endpoint, which a
// coordinator reads at startup to build its routing table.
type ShardMeta struct {
	// Index and Count locate the shard in the split (a whole set is the
	// single partition of a 1-way split).
	Index int `json:"index"`
	Count int `json:"count"`
	// Lo and Hi delimit the owned global node IDs [Lo, Hi).
	Lo int32 `json:"lo"`
	Hi int32 `json:"hi"`
	// TotalNodes is the node count of the full (unsplit) set.
	TotalNodes int `json:"total_nodes"`
	// K is the sketch parameter.
	K int `json:"k"`
	// Kind is the set kind: uniform, weighted, or approximate.  Every
	// kind holds bottom-k sketches.
	Kind string `json:"kind"`
}

// ShardBackend is one partition backend of a Coordinator: anything that
// can identify its node range and answer the wire protocol for it.
// *Engine implements it (a whole-set engine is the trivial 1-way shard,
// one over a partition the real thing), *Coordinator implements it too (so
// coordination trees compose), and cmd/adsserver implements it over HTTP
// for remote workers.
type ShardBackend interface {
	// Meta identifies the shard's node range and sketch parameters.
	Meta() ShardMeta
	// Do answers one protocol request for nodes the shard owns.
	Do(ctx context.Context, req Request) (Response, error)
	// DoBatch answers a batch, reporting per-request failures inline.
	DoBatch(ctx context.Context, reqs []Request) ([]Response, error)
}

var (
	_ ShardBackend = (*Engine)(nil)
	_ ShardBackend = (*Coordinator)(nil)
)

// ErrShardUnavailable reports that a shard backend could not be reached:
// it is down, ejected by health checks, or exhausted its retry budget.
// Servers should map it to HTTP 503.  Under the "partial" failure policy
// a coordinator degrades around it instead of failing the query.
var ErrShardUnavailable = errors.New("adsketch: shard unavailable")

// coordConfig is the failure-semantics configuration of a Coordinator:
// the policy data of doShardBatch's attempt schedule.
type coordConfig struct {
	timeout time.Duration // per-attempt shard deadline; 0 = none
	retries int           // extra attempt rounds over a replica group
	backoff time.Duration // the base of cluster.Backoff before a retry
	hedge   time.Duration // how long an attempt runs alone; 0 = never hedge
}

// CoordinatorOption configures the failure semantics of a Coordinator:
// per-shard deadlines, bounded retries with backoff, and hedged replica
// requests.  The zero configuration reproduces the historical behavior
// (no deadline, no retry, no hedging), so results are byte-identical
// whenever no fault occurs.
type CoordinatorOption func(*coordConfig) error

// WithShardTimeout bounds every individual shard attempt: an attempt
// that has not answered within d fails with context.DeadlineExceeded and
// becomes eligible for retry or replica failover.  0 disables the bound.
func WithShardTimeout(d time.Duration) CoordinatorOption {
	return func(c *coordConfig) error {
		if d < 0 {
			return fmt.Errorf("%w: WithShardTimeout(%v), want >= 0", ErrBadOption, d)
		}
		c.timeout = d
		return nil
	}
}

// WithShardRetries grants n extra rounds over a partition's replica
// group after the first: with retries 1 and two replicas, a shard call
// attempts primary, replica, primary and replica, each attempt after a
// failed one waiting its backoff.  Retries apply only to transient
// failures — bad requests and unsupported queries fail immediately.
func WithShardRetries(n int) CoordinatorOption {
	return func(c *coordConfig) error {
		if n < 0 {
			return fmt.Errorf("%w: WithShardRetries(%d), want >= 0", ErrBadOption, n)
		}
		c.retries = n
		return nil
	}
}

// WithRetryBackoff sets the base sleep inserted before each retried
// attempt; it doubles per attempt in the call's order (capped at 1s).
// The default is 25ms.
func WithRetryBackoff(d time.Duration) CoordinatorOption {
	return func(c *coordConfig) error {
		if d < 0 {
			return fmt.Errorf("%w: WithRetryBackoff(%v), want >= 0", ErrBadOption, d)
		}
		c.backoff = d
		return nil
	}
}

// WithHedgeDelay arms hedged requests on partitions that have replicas:
// when an attempt has not answered within d, the next attempt in the
// replica order starts beside it, once per call, and the first success
// wins.  0 (the default) disables hedging; replicas then serve only as
// sequential failover targets after an attempt fails.
func WithHedgeDelay(d time.Duration) CoordinatorOption {
	return func(c *coordConfig) error {
		if d < 0 {
			return fmt.Errorf("%w: WithHedgeDelay(%v), want >= 0", ErrBadOption, d)
		}
		c.hedge = d
		return nil
	}
}

// shardCounters is the per-partition failure-semantics telemetry, whose
// meanings doShardBatch states.  All fields are atomics; a Coordinator is
// read under full query concurrency.
type shardCounters struct {
	calls, errors, failures, retries, hedges, hedgeWins, timeouts atomic.Int64
}

// ShardCallStats is one partition's failure-semantics counters.
type ShardCallStats struct {
	Partition int   `json:"partition"`
	Replicas  int   `json:"replicas"`
	Calls     int64 `json:"calls"`
	Errors    int64 `json:"errors,omitempty"`
	Failures  int64 `json:"failures,omitempty"`
	Retries   int64 `json:"retries,omitempty"`
	Hedges    int64 `json:"hedges,omitempty"`
	HedgeWins int64 `json:"hedge_wins,omitempty"`
	Timeouts  int64 `json:"timeouts,omitempty"`
}

// CoordinatorStats is the coordinator's failure-semantics telemetry:
// per-partition call, error, retry, and hedge counters (what /statsz
// reports as "scatter" in adsserver's coordinator mode).
type CoordinatorStats struct {
	Shards []ShardCallStats `json:"shards"`
}

// Stats snapshots the per-partition call/error/retry/hedge counters.
func (c *Coordinator) Stats() CoordinatorStats {
	out := CoordinatorStats{Shards: make([]ShardCallStats, len(c.groups))}
	for i := range c.groups {
		st := &c.stats[i]
		out.Shards[i] = ShardCallStats{
			Partition: c.shards[i].Meta().Index,
			Replicas:  len(c.groups[i]) - 1,
			Calls:     st.calls.Load(),
			Errors:    st.errors.Load(),
			Failures:  st.failures.Load(),
			Retries:   st.retries.Load(),
			Hedges:    st.hedges.Load(),
			HedgeWins: st.hedgeWins.Load(),
			Timeouts:  st.timeouts.Load(),
		}
	}
	return out
}

// Coordinator serves the wire protocol over a complete set of shard
// backends, scattering each query to the shards that own its nodes and
// gathering the partial responses into the single-set answer.  It is
// safe for concurrent use when its backends are (both *Engine and the
// adsserver HTTP shard are).
type Coordinator struct {
	shards []ShardBackend   // per-partition primaries (groups[i][0])
	groups [][]ShardBackend // per-partition replica groups, primary first
	stats  []shardCounters  // per-partition failure telemetry
	every  []cluster.Sub    // one node-less sub per shard: a topk's fan-out
	cfg    coordConfig
	total  int
	k      int
	kind   string
}

// NewCoordinator builds a coordinator over a complete split: one backend
// per partition of a P-way split of n nodes, partition i over the nodes
// [i·n/P, (i+1)·n/P) (core.PartRange, the rule SplitSketchSet cuts by),
// with equal sketch parameters; any other cover is refused, naming the
// backend.  Backends may be local engines, remote workers, or nested
// coordinators, in any order; the coordinator keeps them in partition
// order.  Options configure the failure semantics
// (per-shard timeouts, bounded retries with backoff); for replicated
// partitions and hedged requests see NewReplicatedCoordinator, of which
// this is the single-replica form.
func NewCoordinator(backends []ShardBackend, opts ...CoordinatorOption) (*Coordinator, error) {
	groups := make([][]ShardBackend, len(backends))
	for i, b := range backends {
		groups[i] = []ShardBackend{b}
	}
	return NewReplicatedCoordinator(groups, opts...)
}

// NewReplicatedCoordinator builds a coordinator over replica groups: one
// group per partition, each holding that partition's primary backend
// first and any number of replicas after it.  Every backend in a group
// must serve the identical shard (same node range, split position, and
// sketch parameters).  A shard call's attempts walk the group in order:
// a replica is the failover target when the attempt before it fails, and
// — with WithHedgeDelay — a hedged concurrent target when it is merely
// slow.
func NewReplicatedCoordinator(groups [][]ShardBackend, opts ...CoordinatorOption) (*Coordinator, error) {
	cfg := coordConfig{backoff: 25 * time.Millisecond}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("%w: NewCoordinator with no shard backends", ErrBadOption)
	}
	// The groups must be partitions 0..P-1 of one split, each over the
	// range core.PartRange gives it; they are kept in partition order, so
	// that a routed sub's Shard is its group's index.
	byPart := make([][]ShardBackend, len(groups))
	var first ShardMeta
	for i, g := range groups {
		if len(g) == 0 {
			return nil, fmt.Errorf("%w: shard %d has no backends", ErrBadOption, i)
		}
		m := g[0].Meta()
		for r, b := range g[1:] {
			if b.Meta() != m {
				return nil, fmt.Errorf("%w: shard %d replica %d serves %+v, primary %+v",
					ErrBadOption, i, r+1, b.Meta(), m)
			}
		}
		if i == 0 {
			first = m
		}
		if m.TotalNodes != first.TotalNodes || m.K != first.K || m.Kind != first.Kind {
			return nil, fmt.Errorf("%w: shard %d serves (%d nodes, k=%d, %s), shard 0 (%d nodes, k=%d, %s)",
				ErrBadOption, i, m.TotalNodes, m.K, m.Kind, first.TotalNodes, first.K, first.Kind)
		}
		err := core.CheckPartRange(m.Index, m.Count, m.TotalNodes, int64(m.Lo), int64(m.Hi))
		switch {
		case err != nil:
		case m.Count != len(groups):
			err = fmt.Errorf("it is partition %d of %d, but the coordinator has %d", m.Index, m.Count, len(groups))
		case byPart[m.Index] != nil:
			err = fmt.Errorf("another shard serves partition %d too", m.Index)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: shard %d: %v", ErrBadOption, i, err)
		}
		byPart[m.Index] = g
	}
	c := &Coordinator{
		groups: byPart,
		shards: make([]ShardBackend, len(byPart)),
		stats:  make([]shardCounters, len(byPart)),
		every:  make([]cluster.Sub, len(byPart)),
		cfg:    cfg,
		total:  first.TotalNodes,
		k:      first.K,
		kind:   first.Kind,
	}
	for i, g := range byPart {
		c.shards[i] = g[0]
		c.every[i].Shard = i
	}
	return c, nil
}

// NumNodes returns the global node count.
func (c *Coordinator) NumNodes() int { return c.total }

// K returns the sketch parameter.
func (c *Coordinator) K() int { return c.k }

// Kind returns the served set kind (uniform, weighted, approximate).
func (c *Coordinator) Kind() string { return c.kind }

// NumShards returns the number of shard backends.
func (c *Coordinator) NumShards() int { return len(c.shards) }

// ShardMetas returns the metadata of every primary backend, in partition
// order.
func (c *Coordinator) ShardMetas() []ShardMeta {
	out := make([]ShardMeta, len(c.shards))
	for i, b := range c.shards {
		out[i] = b.Meta()
	}
	return out
}

// Meta reports the coordinator's own serving identity: the whole node
// space, as the single partition of a 1-way split.  This is what lets a
// Coordinator stand in for an Engine behind another Coordinator.
func (c *Coordinator) Meta() ShardMeta {
	return ShardMeta{
		Index: 0, Count: 1,
		Lo: 0, Hi: int32(c.total), TotalNodes: c.total,
		K: c.k, Kind: c.kind,
	}
}

// cacheStatser is the optional backend face for index-cache statistics;
// *Engine and *Coordinator provide it, remote shards keep their own
// (visible on their /statsz).
type cacheStatser interface {
	CacheStats() CacheStats
}

// CacheStats aggregates the index-cache counters of every local backend
// (engines and nested coordinators; remote shards report through their
// own /statsz).  The engines keep independent caches — one per
// partition — and this is their shared, serving-tier-wide view.
func (c *Coordinator) CacheStats() CacheStats {
	var st CacheStats
	for _, b := range c.shards {
		if s, ok := b.(cacheStatser); ok {
			sub := s.CacheStats()
			st.Slots += sub.Slots
			st.Built += sub.Built
			st.Hits += sub.Hits
			st.Misses += sub.Misses
		}
	}
	return st
}

// Do answers one protocol request by scatter-gather over the shards: it
// is a batch of one through DoBatch's planner, so semantics, errors, and
// results are identical to Engine.Do over the unpartitioned set.  A
// failure is the error value itself — its errors.Is class and its
// "shard N:" tag survive — and when several shards fail under
// PolicyFail it names the first in routing order.  When req.Explain is
// set, the response additionally carries the merge metadata.
func (c *Coordinator) Do(ctx context.Context, req Request) (Response, error) {
	resps, errs, err := c.do(ctx, []Request{req})
	if err != nil {
		return Response{}, err
	}
	return resps[0], errs[0]
}

// DoBatch answers a batch of protocol requests with the semantics of
// Engine.DoBatch: per-request failures are reported inline, and the call
// fails only when ctx is done.
//
// One planner serves DoBatch and Do: it plans the whole batch first and
// sends each shard ONE multi-request frame covering every sub-request
// the batch routes to it (the wire DoBatch array form), so a batch costs
// one round trip per consulted shard, whatever its kinds.  The pairwise
// coordinated kinds (jaccard, influence, distance_bound, sketch) ride the
// same frames as one sketch fetch per consulted node, and are evaluated
// at the coordinator once the scatter returns.
func (c *Coordinator) DoBatch(ctx context.Context, reqs []Request) ([]Response, error) {
	out, errs, err := c.do(ctx, reqs)
	if err != nil {
		return nil, err
	}
	for i, e := range errs {
		if e != nil {
			out[i] = Response{ID: reqs[i].ID, Error: e.Error()}
		}
	}
	return out, nil
}

// batchPlan is one request's routing inside a batched scatter.
type batchPlan struct {
	q       Query
	err     error         // pre-scatter failure (validation, routing)
	partial bool          // resolved failure policy
	explain bool          // attach the merge metadata
	nodes   []int32       // the routed nodes: scored, or whose sketches are read
	subs    []cluster.Sub // the consulted shards, in routing order
	spans   []span        // per sub: its sub-requests' slots in that shard's frame
}

// span is a run of slots [lo, hi) in one shard's batched frame.
type span struct{ lo, hi int }

// do is the one coordinator path: plan every request, scatter one batched
// call per shard, merge each request's answer.  It returns a response or
// an error per request; only a cancelled ctx fails the whole call.
func (c *Coordinator) do(ctx context.Context, reqs []Request) ([]Response, []error, error) {
	// Plan: validate and route each request, and append its sub-requests
	// to the consulted shards' frames, remembering each sub's slots.
	plans := make([]batchPlan, len(reqs))
	perShard := make([][]Request, len(c.shards))
	for i := range reqs {
		p := &plans[i]
		if p.err = c.plan(&reqs[i], p); p.err != nil {
			continue
		}
		p.spans = make([]span, len(p.subs))
		for j, sub := range p.subs {
			frame := perShard[sub.Shard]
			lo := len(frame)
			switch q := p.q.(type) {
			case scoreQuery:
				frame = append(frame, q.subRequest(sub.Nodes))
			case *TopKQuery:
				frame = append(frame, Request{TopK: q})
			default: // pairwise: one sketch fetch per consulted node
				for _, v := range sub.Nodes {
					frame = append(frame, Request{Sketch: &SketchQuery{Node: v}})
				}
			}
			perShard[sub.Shard] = frame
			p.spans[j] = span{lo, len(frame)}
		}
	}

	// Scatter: one batched call per shard that has work, concurrently,
	// under the usual failure semantics (timeout, retries, replicas,
	// hedging).  A shard-level failure is recorded, not fatal — which
	// requests it fails, and how, is a per-request policy decision.
	answers := make([]shardAnswer, len(c.shards))
	active := make([]int, 0, len(c.shards))
	for s := range perShard {
		if len(perShard[s]) > 0 {
			active = append(active, s)
		}
	}
	if len(active) > 0 {
		_, err := cluster.ScatterAll(ctx, len(active), func(j int) error {
			a := &answers[active[j]]
			a.resps, a.err = c.doShardBatch(ctx, active[j], perShard[active[j]])
			return a.err
		})
		if err != nil {
			return nil, nil, err // the whole scatter was cancelled
		}
	}

	// Merge: reassemble each request's response from its slots.
	out := make([]Response, len(reqs))
	errs := make([]error, len(reqs))
	for i := range reqs {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		p := &plans[i]
		var resp Response
		err := p.err
		if err == nil {
			resp, err = c.merge(p, answers)
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			errs[i] = err
			continue
		}
		resp.ID = reqs[i].ID
		resp.Kind = p.q.kind()
		out[i] = resp
	}
	return out, errs, nil
}

// shardAnswer is one shard's outcome in a batched scatter.
type shardAnswer struct {
	resps []Response
	err   error
}

// plan validates one request and routes it: the shards it consults, in
// routing order, each with the nodes it answers for.
func (c *Coordinator) plan(req *Request, p *batchPlan) (err error) {
	if p.q, err = req.Query(); err != nil {
		return err
	}
	if err = p.q.validate(); err != nil {
		return err
	}
	if p.partial, err = req.partialPolicy(); err != nil {
		return err
	}
	p.explain = req.Explain
	switch q := p.q.(type) {
	case scoreQuery:
		p.nodes = q.scoreNodes()
	case *TopKQuery:
		// Every shard returns its own top-min(K, owned); the union
		// contains every global top-K member, so the merge is exhaustive.
		p.subs = c.every
		return nil
	case pairwiseQuery:
		if err = requireCoordinated(c.Meta()); err != nil {
			return err
		}
		p.nodes = q.sketchNodes(0, c.total)
		p.partial = false // it needs every sketch it reads
	}
	p.subs, err = c.planNodes(p.nodes)
	return err
}

// merge assembles one request's response from its subs' slots, and is
// the one place the failure policy applies.  The fail policy surfaces the
// first failed sub in routing order.  The partial policy answers from the
// subs that responded, flags the response Partial and names the failed
// partitions; when none responded it fails too, since a fully degraded
// answer would be all noise.  With no failure the policies answer
// byte-identically.
func (c *Coordinator) merge(p *batchPlan, answers []shardAnswer) (Response, error) {
	parts := make([][]Response, len(p.subs)) // nil for a failed sub
	var failed []int
	var firstErr error
	answered := 0
	for j, sub := range p.subs {
		resps, err := c.slots(sub.Shard, p.spans[j], answers)
		if err != nil {
			failed = append(failed, sub.Shard)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		parts[j] = resps
		answered += len(resps)
	}
	if firstErr != nil && (!p.partial || len(failed) == len(p.subs)) {
		return Response{}, firstErr
	}
	resp, err := c.gather(p, parts)
	if err != nil {
		return Response{}, err
	}
	resp.Partial = len(failed) > 0
	if p.explain {
		m := &MergeMeta{Partials: answered}
		for _, sub := range p.subs {
			m.Shards = append(m.Shards, sub.Shard)
		}
		if len(failed) > 0 {
			sort.Ints(failed)
			m.Failed = failed
		}
		resp.Merge = m
	}
	return resp, nil
}

// slots returns one sub's answers from its shard's batched response: the
// shard-level failure, already tagged "shard N:" by doShardBatch, or the
// first per-request failure the worker reported inline, given the same
// tag.
func (c *Coordinator) slots(shard int, s span, answers []shardAnswer) ([]Response, error) {
	a := &answers[shard]
	if a.err != nil {
		return nil, a.err
	}
	resps := a.resps[s.lo:s.hi]
	for _, r := range resps {
		if r.Error != "" {
			return nil, fmt.Errorf("shard %d: %s", c.shards[shard].Meta().Index, r.Error)
		}
	}
	return resps, nil
}

// gather combines the answered subs' responses into the query's payload;
// parts[j] is nil when sub j failed.  Scores land in request order, with
// a failed sub's nodes zeroed and listed in Missing; rankings merge in the
// single-set order; a pairwise query, which merge reaches only when every
// sub answered, rebuilds its sketches and evaluates once.
func (c *Coordinator) gather(p *batchPlan, parts [][]Response) (Response, error) {
	switch q := p.q.(type) {
	case scoreQuery:
		cols := make([][]float64, len(parts))
		ok := make([]bool, len(parts))
		for j, r := range parts {
			if ok[j] = r != nil; ok[j] {
				cols[j] = r[0].Scores
			}
		}
		scores, missingPos, err := cluster.MergeScores(len(p.nodes), p.subs, cols, ok)
		if err != nil {
			return Response{}, err
		}
		var missing []int32 // nil (omitted on the wire) when nothing failed
		for _, pos := range missingPos {
			missing = append(missing, p.nodes[pos])
		}
		return Response{Scores: scores, Missing: missing}, nil
	case *TopKQuery:
		lists := make([][]Ranked, len(parts))
		for j, r := range parts {
			if r != nil {
				lists[j] = r[0].Ranking
			}
		}
		return Response{Ranking: cluster.MergeTopK(q.K, lists)}, nil
	}
	sketches := make([]*core.ADS, len(p.nodes))
	for j, sub := range p.subs {
		for i, v := range sub.Nodes {
			a, err := adsFromWire(v, c.k, parts[j][i].Entries)
			if err != nil {
				return Response{}, c.shardErr(sub.Shard, err)
			}
			sketches[sub.Pos[i]] = a
		}
	}
	return p.q.(pairwiseQuery).combine(c.k, p.nodes, sketches), nil
}

// shardErr tags a backend error with the shard's partition index.
func (c *Coordinator) shardErr(shard int, err error) error {
	return fmt.Errorf("shard %d: %w", c.shards[shard].Meta().Index, err)
}

// retryableShardErr classifies a failed shard attempt: deterministic
// protocol rejections fail immediately (a retry would just repeat them),
// everything else — transport failures, timeouts, ejected shards — is
// transient and worth another attempt or a replica.
func retryableShardErr(err error) bool {
	switch {
	case errors.Is(err, ErrBadRequest),
		errors.Is(err, ErrUnsupportedQuery),
		errors.Is(err, ErrBadOption),
		errors.Is(err, ErrUnknownDataset),
		errors.Is(err, ErrDatasetExists):
		return false
	}
	return true
}

// attemptResult is one attempt of a shard call: its place in the call's
// attempt order and the backend's answer.
type attemptResult struct {
	i     int
	resps []Response
	err   error
}

// doShardBatch is every scatter leg's entry point: it answers one request
// batch on partition part's replica group under the one attempt schedule,
// and tags a failure with the partition.  Protocol queries are read-only,
// so a repeated batch is safe.
//
// The attempt order is the group's backends in turn, for retries+1
// rounds.  Attempt i runs under the per-attempt deadline, after
// cluster.Backoff(backoff, i) when it follows a failed attempt.  The
// first success answers; a deterministic error (retryableShardErr) or ctx
// ending ends the call.  Hedging is the one branch: with a hedge delay and
// a replica, an attempt still running after the delay starts the next
// one beside it, once a call; then a failed attempt is replaced by the
// next, and the first success cancels the rest.  Unhedged, attempts run
// on the caller's goroutine; only a retry's pause takes a timer.
//
// The counters (ShardCallStats): calls, one a leg; errors, attempts
// failed while ctx was live, and timeouts, those the per-attempt deadline
// cut; retries, attempts after a failed one; hedges, attempts started
// beside a slow one; hedge wins, calls answered by the hedge or a later
// attempt, not the one it raced; failures, calls that returned an error.
func (c *Coordinator) doShardBatch(ctx context.Context, part int, reqs []Request) (resps []Response, err error) {
	st := &c.stats[part]
	st.calls.Add(1)
	defer func() {
		if err == nil && len(resps) != len(reqs) {
			err = fmt.Errorf("worker answered %d of %d batched requests", len(resps), len(reqs))
		}
		if err != nil {
			st.failures.Add(1)
			resps, err = nil, c.shardErr(part, err)
		}
	}()
	group := c.groups[part]
	n := len(group) * (c.cfg.retries + 1)
	var results chan attemptResult // hedged calls only: finished attempts
	var hedge *time.Timer          // hedged calls only: the running attempt's hedge clock
	if c.cfg.hedge > 0 && len(group) > 1 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx) // done only when the call returns
		defer cancel()
		results = make(chan attemptResult, n) // buffered: an abandoned attempt never blocks
		hedge = time.NewTimer(c.cfg.hedge)
		defer hedge.Stop()
	}
	var firstErr error
	// next is the order's next attempt, running how many are in flight
	// (hedged calls only), width how many may be, hedgeAt the hedge's
	// place in the order (n until the call hedges).
	next, running, width, hedgeAt := 0, 0, 1, n
	for {
		var r attemptResult
		if running < width && next < n {
			r.i, next = next, next+1
			var pause time.Duration
			if r.i > 0 && r.i != hedgeAt {
				st.retries.Add(1)
				pause = cluster.Backoff(c.cfg.backoff, r.i)
			}
			be := group[r.i%len(group)]
			if results != nil {
				running++
				go func(r attemptResult, ctx context.Context, be ShardBackend, pause time.Duration, results chan<- attemptResult) {
					r.resps, r.err = c.callBackend(ctx, be, reqs, pause)
					results <- r
				}(r, ctx, be, pause, results)
				if hedgeAt == n {
					hedge.Reset(pause + c.cfg.hedge)
				}
				continue
			}
			r.resps, r.err = c.callBackend(ctx, be, reqs, pause)
		} else if running == 0 {
			return nil, firstErr
		} else {
			select {
			case r = <-results:
				running--
			case <-hedge.C:
				if next < n {
					hedgeAt, width = next, 2
					st.hedges.Add(1)
				}
				continue
			}
		}
		if r.err == nil {
			if r.i >= hedgeAt {
				st.hedgeWins.Add(1)
			}
			return r.resps, nil
		}
		if ctx.Err() != nil {
			return nil, cmp.Or(firstErr, r.err)
		}
		st.errors.Add(1)
		if c.cfg.timeout > 0 && errors.Is(r.err, context.DeadlineExceeded) {
			st.timeouts.Add(1)
			r.err = fmt.Errorf("attempt exceeded the %v shard deadline: %w", c.cfg.timeout, r.err)
		}
		if !retryableShardErr(r.err) {
			return nil, r.err
		}
		firstErr = cmp.Or(firstErr, r.err)
	}
}

// callBackend is one attempt: its backoff pause, then the batch on be
// under the per-attempt deadline.
func (c *Coordinator) callBackend(ctx context.Context, be ShardBackend, reqs []Request, pause time.Duration) ([]Response, error) {
	if pause > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(pause):
		}
	}
	if c.cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.timeout)
		defer cancel()
	}
	return be.DoBatch(ctx, reqs)
}

// planNodes validates a query's nodes and routes them to their owning
// shards.
func (c *Coordinator) planNodes(nodes []int32) ([]cluster.Sub, error) {
	if err := query.CheckNodes(c.total, nodes); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return cluster.Plan(nodes, len(c.shards), c.total), nil
}

// requireCoordinated gates the cross-sketch queries (jaccard, influence,
// distance_bound, sketch fetches): they need uniform-rank bottom-k
// coordinated sketches, which an approximate set — bottom-k at full
// precision — does not hold either.
func requireCoordinated(m ShardMeta) error {
	if m.Kind != KindUniform {
		return fmt.Errorf("%w: requires uniform-rank bottom-k coordinated sketches, the set holds %s sketches",
			ErrUnsupportedQuery, m.Kind)
	}
	return nil
}

// adsFromWire rebuilds a validated bottom-k ADS from transported sketch
// entries.  The coordinator speaks only binary frames to its workers, and
// internal/wire carries each distance and rank as its float64 bits, so a
// sketch fetched from a remote shard is bit-for-bit the stored one.
func adsFromWire(owner int32, k int, entries []SketchEntry) (*core.ADS, error) {
	raw := make([]core.Entry, len(entries))
	for i, e := range entries {
		raw[i] = core.Entry{Node: e.Node, Dist: e.Dist, Rank: e.Rank}
	}
	a, err := core.ADSFromEntries(owner, k, raw)
	if err != nil {
		return nil, fmt.Errorf("sketch of node %d arrived corrupt: %w", owner, err)
	}
	return a, nil
}
