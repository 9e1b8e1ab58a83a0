package adsketch

import (
	"context"
	"errors"
	"fmt"
	"math"

	"adsketch/internal/core"
)

// The wire query protocol: every distance-based query the package
// answers, expressed as a typed request/response pair that survives JSON
// transport.  One sketch build serves the whole protocol — Engine.Do
// dispatches a Request to the matching estimator, and the Engine's
// convenience methods (Closeness, TopCloseness, ...) are thin wrappers
// over the same path, so a query answered over HTTP by cmd/adsserver is
// bit-for-bit identical to the direct method call on the same sketches.

// Typed sentinel errors of the protocol layer; match with errors.Is.
var (
	// ErrBadRequest reports a malformed Request: zero or multiple query
	// fields set, or a query whose parameters fail validation.  Servers
	// should map it to HTTP 400.
	ErrBadRequest = errors.New("adsketch: bad request")
	// ErrUnsupportedQuery reports a well-formed query that the engine's
	// sketch set cannot answer (e.g. a coordinated cross-sketch query
	// against a weighted or approximate set).  Servers should map it to
	// HTTP 422.
	ErrUnsupportedQuery = errors.New("adsketch: query unsupported by this sketch set")
)

// Query is one typed protocol query, dispatched by Engine.Do (single
// set or shard) and Coordinator.Do (scatter-gather).  The
// implementations are the *Query types of this package; the interface is
// closed (its methods are unexported) so the wire protocol stays in sync
// with the server.  Every kind belongs to one of three families — the
// scoreQuery family, topk, and the pairwiseQuery family — and both
// Engine.Do and the coordinator's planner switch on the family, not the
// kind: a kind states its estimator once, and the engine evaluates it
// while a coordinator routes and merges it.
type Query interface {
	// kind is the stable wire name of the query type.
	kind() string
	// validate checks the query parameters (engine-independent).
	validate() error
}

// scoreQuery is the per-node-scores family of the protocol (closeness,
// harmonic, neighborhood, centrality_kernel): queries an engine answers
// by reading one score per node from its index, and a coordinator by
// routing node subsets to their owning shards and splicing the score
// columns back together.
type scoreQuery interface {
	Query
	// scoreNodes is the queried node list, in request order.
	scoreNodes() []int32
	// score reads one node's estimate from its index.
	score() func(*core.HIPIndex) float64
	// subRequest builds the same query over one shard's node subset.
	subRequest(sub []int32) Request
}

// pairwiseQuery is the coordinated family (jaccard, influence,
// distance_bound, sketch): queries over sketches that may live on
// different shards.  An Engine reads them from its set and a Coordinator
// fetches them from their owners; both then run the one combine, so the
// answers agree bit for bit.  They need every consulted sketch, so the
// partial policy does not apply.
type pairwiseQuery interface {
	Query
	// sketchNodes lists the nodes whose sketches the query reads, in
	// evaluation order.  A node list the query leaves implicit (greedy
	// influence without candidates) is the n served nodes from lo.
	sketchNodes(lo int32, n int) []int32
	// combine evaluates the query over the sketches of sketchNodes' nodes
	// (parallel to nodes), built with sketch parameter k.
	combine(k int, nodes []int32, sketches []*core.ADS) Response
}

// Per-query partial-failure policies (Request.Policy) of a partitioned
// serving tier.  They only matter when a shard fails mid-query: with no
// fault, both policies produce byte-identical responses.
const (
	// PolicyFail (the default, also selected by an empty Policy) fails
	// the whole query when any consulted shard fails, with a typed error
	// naming the shard.
	PolicyFail = "fail"
	// PolicyPartial degrades instead: per-node and topk queries answer
	// from the shards that responded, flag the Response as Partial, zero
	// the scores of the unreachable nodes (listing them in Missing), and
	// name the failed partitions in the Explain merge metadata.  The
	// pairwise coordinated queries (jaccard, influence, distance_bound,
	// sketch) need every consulted sketch and keep fail semantics.
	PolicyPartial = "partial"
)

// Request is the transport envelope of one query: exactly one of the
// query fields must be set.  The zero value is invalid.
type Request struct {
	// ID is an opaque client tag echoed into the Response, for matching
	// requests to responses inside a batch.
	ID string `json:"id,omitempty"`
	// Dataset names the catalog dataset the query targets; a Catalog
	// routes by it and dispatches the request with the field cleared.
	// Empty routes to the default dataset and — because single-set
	// engines ignore the field and omitempty keeps it off the wire — is
	// bit-for-bit the pre-catalog wire format.
	Dataset string `json:"dataset,omitempty"`
	// Explain asks a partitioned serving tier (Coordinator) to attach
	// the merge metadata — which shards were consulted — to the
	// Response.  Single engines ignore it, and without it a coordinator
	// response is byte-identical to the single-set one.
	Explain bool `json:"explain,omitempty"`
	// Policy is the partial-failure policy of a partitioned serving
	// tier: PolicyFail (the default; an empty value means the same) or
	// PolicyPartial.  Single engines validate and otherwise ignore it;
	// with no shard fault the policies answer byte-identically.
	Policy string `json:"policy,omitempty"`

	Closeness        *ClosenessQuery        `json:"closeness,omitempty"`
	Harmonic         *HarmonicQuery         `json:"harmonic,omitempty"`
	Neighborhood     *NeighborhoodQuery     `json:"neighborhood,omitempty"`
	TopK             *TopKQuery             `json:"topk,omitempty"`
	CentralityKernel *CentralityKernelQuery `json:"centrality_kernel,omitempty"`
	Jaccard          *JaccardQuery          `json:"jaccard,omitempty"`
	Influence        *InfluenceQuery        `json:"influence,omitempty"`
	DistanceBound    *DistanceBoundQuery    `json:"distance_bound,omitempty"`
	Sketch           *SketchQuery           `json:"sketch,omitempty"`
}

// Query returns the single query carried by the request, or an error
// matching ErrBadRequest when zero or more than one field is set.
func (r *Request) Query() (Query, error) {
	var q Query
	n := 0
	pick := func(c Query, set bool) {
		if set {
			q = c
			n++
		}
	}
	pick(r.Closeness, r.Closeness != nil)
	pick(r.Harmonic, r.Harmonic != nil)
	pick(r.Neighborhood, r.Neighborhood != nil)
	pick(r.TopK, r.TopK != nil)
	pick(r.CentralityKernel, r.CentralityKernel != nil)
	pick(r.Jaccard, r.Jaccard != nil)
	pick(r.Influence, r.Influence != nil)
	pick(r.DistanceBound, r.DistanceBound != nil)
	pick(r.Sketch, r.Sketch != nil)
	switch n {
	case 0:
		return nil, fmt.Errorf("%w: no query set", ErrBadRequest)
	case 1:
		return q, nil
	default:
		return nil, fmt.Errorf("%w: %d queries set, want exactly 1", ErrBadRequest, n)
	}
}

// Response is the transport result of one query.  Kind names the query
// that produced it; which payload fields are populated depends on the
// kind (Scores for per-node queries, Ranking for topk, Seeds/Value for
// influence, Value for jaccard and distance_bound).
type Response struct {
	// ID echoes the Request ID.
	ID string `json:"id,omitempty"`
	// Kind is the wire name of the answered query type.
	Kind string `json:"kind,omitempty"`
	// Error reports a per-request failure inside a DoBatch; empty on
	// success.
	Error string `json:"error,omitempty"`
	// Partial marks a degraded answer: the query ran under PolicyPartial
	// and at least one consulted shard failed, so the payload covers
	// only the shards that responded.  Never set on a fault-free query.
	Partial bool `json:"partial,omitempty"`
	// Missing lists the queried nodes whose owning shard failed under
	// PolicyPartial; their positions in Scores are zero-filled.
	Missing []int32 `json:"missing,omitempty"`

	// Scores holds one estimate per queried node, in request order.
	Scores []float64 `json:"scores,omitempty"`
	// Ranking holds the top-k nodes, best first.
	Ranking []Ranked `json:"ranking,omitempty"`
	// Value holds a scalar result.  It is a pointer so that a genuine 0
	// survives the JSON round trip and an absent value stays absent.
	Value *float64 `json:"value,omitempty"`
	// Unreachable is set by distance_bound when the sketches share no
	// node (the bound is +Inf, which JSON cannot carry in Value).
	Unreachable bool `json:"unreachable,omitempty"`
	// Seeds holds the selected (or echoed) seed nodes of an influence
	// query.
	Seeds []int32 `json:"seeds,omitempty"`
	// Entries holds the transported sketch entries of a sketch query —
	// the pairwise-scatter payload a coordinator fetches from the shard
	// owning a node.
	Entries []SketchEntry `json:"entries,omitempty"`
	// Merge describes how a partitioned serving tier assembled this
	// response; attached only when the Request set Explain.
	Merge *MergeMeta `json:"merge,omitempty"`
}

// MergeMeta is the merge metadata of a scattered query (Request.Explain).
type MergeMeta struct {
	// Shards lists the partition indexes consulted, in routing order.
	Shards []int `json:"shards"`
	// Partials is the number of partial responses merged.
	Partials int `json:"partials"`
	// Failed lists the partition indexes that were consulted but did
	// not answer, ascending; only a PolicyPartial query that degraded
	// sets it (a PolicyFail query fails instead of recording).
	Failed []int `json:"failed,omitempty"`
}

// partialPolicy resolves Request.Policy, rejecting unknown values with
// an error matching ErrBadRequest.
func (r *Request) partialPolicy() (bool, error) {
	switch r.Policy {
	case "", PolicyFail:
		return false, nil
	case PolicyPartial:
		return true, nil
	default:
		return false, fmt.Errorf("%w: unknown policy %q, want %q or %q", ErrBadRequest, r.Policy, PolicyFail, PolicyPartial)
	}
}

// SketchEntry is one transported ADS entry: a sampled node, its distance
// from the sketch owner, and its rank.  encoding/json writes float64s in
// the shortest form that round trips, so transported sketches are
// bit-for-bit the stored ones.
type SketchEntry struct {
	Node int32   `json:"node"`
	Dist float64 `json:"dist"`
	Rank float64 `json:"rank"`
}

func scalar(v float64) *float64 { return &v }

// ClosenessQuery asks for the HIP estimate of the classic closeness
// centrality 1/Σ_j d_vj of each node (0 for isolated nodes).
type ClosenessQuery struct {
	Nodes []int32 `json:"nodes"`
}

func (q *ClosenessQuery) kind() string { return "closeness" }

func (q *ClosenessQuery) validate() error { return nil }

func (q *ClosenessQuery) score() func(*core.HIPIndex) float64 { return (*core.HIPIndex).Closeness }

func (q *ClosenessQuery) scoreNodes() []int32 { return q.Nodes }

func (q *ClosenessQuery) subRequest(sub []int32) Request {
	return Request{Closeness: &ClosenessQuery{Nodes: sub}}
}

// HarmonicQuery asks for the HIP estimate of the harmonic centrality
// Σ_{j != v} 1/d_vj of each node.
type HarmonicQuery struct {
	Nodes []int32 `json:"nodes"`
}

func (q *HarmonicQuery) kind() string { return "harmonic" }

func (q *HarmonicQuery) validate() error { return nil }

func (q *HarmonicQuery) score() func(*core.HIPIndex) float64 { return (*core.HIPIndex).Harmonic }

func (q *HarmonicQuery) scoreNodes() []int32 { return q.Nodes }

func (q *HarmonicQuery) subRequest(sub []int32) Request {
	return Request{Harmonic: &HarmonicQuery{Nodes: sub}}
}

// NeighborhoodQuery asks for the HIP estimate of n_d(v) = |N_d(v)| (the
// weighted cardinality on weighted sets) for each node.  Radius bounds
// the neighborhood; set Unbounded instead to count everything reachable
// (JSON cannot carry an infinite radius).
type NeighborhoodQuery struct {
	Radius    float64 `json:"radius,omitempty"`
	Unbounded bool    `json:"unbounded,omitempty"`
	Nodes     []int32 `json:"nodes"`
}

func (q *NeighborhoodQuery) kind() string { return "neighborhood" }

func (q *NeighborhoodQuery) validate() error {
	if !q.Unbounded && (math.IsNaN(q.Radius) || math.IsInf(q.Radius, 0) || q.Radius < 0) {
		return fmt.Errorf("%w: neighborhood: radius %g, want finite >= 0 (or unbounded)", ErrBadRequest, q.Radius)
	}
	return nil
}

func (q *NeighborhoodQuery) score() func(*core.HIPIndex) float64 {
	d := q.Radius
	if q.Unbounded {
		d = math.Inf(1)
	}
	return func(x *core.HIPIndex) float64 { return x.Neighborhood(d) }
}

func (q *NeighborhoodQuery) scoreNodes() []int32 { return q.Nodes }

func (q *NeighborhoodQuery) subRequest(sub []int32) Request {
	return Request{Neighborhood: &NeighborhoodQuery{Radius: q.Radius, Unbounded: q.Unbounded, Nodes: sub}}
}

// Metrics accepted by TopKQuery.
const (
	MetricCloseness = "closeness"
	MetricHarmonic  = "harmonic"
)

// TopKQuery asks for the estimated top-K nodes of the whole set by the
// named centrality metric, best first (ties broken by node ID).
type TopKQuery struct {
	Metric string `json:"metric"`
	K      int    `json:"k"`
}

func (q *TopKQuery) kind() string { return "topk" }

func (q *TopKQuery) validate() error {
	switch q.Metric {
	case MetricCloseness, MetricHarmonic:
	default:
		return fmt.Errorf("%w: topk: unknown metric %q", ErrBadRequest, q.Metric)
	}
	if q.K < 1 {
		return fmt.Errorf("%w: topk: k = %d, want >= 1", ErrBadRequest, q.K)
	}
	return nil
}

// rankBy reads the ranked metric from a node's index.
func (q *TopKQuery) rankBy() func(*core.HIPIndex) float64 {
	if q.Metric == MetricHarmonic {
		return (*core.HIPIndex).Harmonic
	}
	return (*core.HIPIndex).Closeness
}

// Kernels accepted by CentralityKernelQuery, the query-time α of the
// centrality C_α(v) = Σ_j α(d_vj) (equation (3) with β ≡ 1).
const (
	KernelNameThreshold    = "threshold"    // α(x) = 1 for x <= radius (neighborhood cardinality)
	KernelNameReachability = "reachability" // α ≡ 1 (reachable count)
	KernelNameExponential  = "exponential"  // α(x) = 2^-x
	KernelNameHarmonic     = "harmonic"     // α(x) = 1/x
	KernelNameIdentity     = "identity"     // α(x) = x (sum of distances)
)

// CentralityKernelQuery asks for the HIP estimate of the distance-decay
// centrality Σ_j α(d_vj) for a named kernel α chosen at query time — the
// Section 5 "build sketches once, pick the statistic later" promise over
// the wire.  Radius parameterizes the threshold kernel and is ignored by
// the others.
type CentralityKernelQuery struct {
	Kernel string  `json:"kernel"`
	Radius float64 `json:"radius,omitempty"`
	Nodes  []int32 `json:"nodes"`
}

func (q *CentralityKernelQuery) kind() string { return "centrality_kernel" }

func (q *CentralityKernelQuery) validate() error {
	switch q.Kernel {
	case KernelNameThreshold:
		if math.IsNaN(q.Radius) || math.IsInf(q.Radius, 0) || q.Radius < 0 {
			return fmt.Errorf("%w: centrality_kernel: threshold radius %g, want finite >= 0", ErrBadRequest, q.Radius)
		}
	case KernelNameReachability, KernelNameExponential, KernelNameHarmonic, KernelNameIdentity:
	default:
		return fmt.Errorf("%w: centrality_kernel: unknown kernel %q", ErrBadRequest, q.Kernel)
	}
	return nil
}

// alpha resolves the kernel function; validate has vetted the name.
func (q *CentralityKernelQuery) alpha() func(float64) float64 {
	switch q.Kernel {
	case KernelNameThreshold:
		return core.KernelThreshold(q.Radius)
	case KernelNameReachability:
		return core.KernelReachability
	case KernelNameExponential:
		return core.KernelExponential
	case KernelNameHarmonic:
		return core.KernelHarmonic
	default:
		return core.KernelIdentity
	}
}

func (q *CentralityKernelQuery) score() func(*core.HIPIndex) float64 {
	alpha := q.alpha()
	return func(x *core.HIPIndex) float64 {
		return x.EstimateQ(func(_ int32, dist float64) float64 { return alpha(dist) })
	}
}

func (q *CentralityKernelQuery) scoreNodes() []int32 { return q.Nodes }

func (q *CentralityKernelQuery) subRequest(sub []int32) Request {
	return Request{CentralityKernel: &CentralityKernelQuery{Kernel: q.Kernel, Radius: q.Radius, Nodes: sub}}
}

// JaccardQuery asks for the estimated Jaccard similarity of the
// neighborhoods N_{radius_a}(a) and N_{radius_b}(b), computable because
// coordinated sketches share one rank permutation.  It requires a
// uniform-rank bottom-k set.
type JaccardQuery struct {
	A       int32   `json:"a"`
	RadiusA float64 `json:"radius_a"`
	B       int32   `json:"b"`
	RadiusB float64 `json:"radius_b"`
}

func (q *JaccardQuery) kind() string { return "jaccard" }

func (q *JaccardQuery) validate() error {
	for _, r := range []float64{q.RadiusA, q.RadiusB} {
		// JSON cannot carry ±Inf, so the wire shape only admits finite
		// radii; any value at or beyond the graph diameter covers the
		// whole reachable set.
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			return fmt.Errorf("%w: jaccard: radius %g, want finite >= 0 (use any radius >= the diameter for full reach)", ErrBadRequest, r)
		}
	}
	return nil
}

func (q *JaccardQuery) sketchNodes(int32, int) []int32 { return []int32{q.A, q.B} }

func (q *JaccardQuery) combine(_ int, _ []int32, s []*core.ADS) Response {
	return Response{Value: scalar(core.NeighborhoodJaccard(s[0], q.RadiusA, s[1], q.RadiusB))}
}

// InfluenceQuery covers the timed-influence primitives on coordinated
// sketches.  With Seeds set, it estimates the union coverage
// |∪_s N_radius(s)| of exactly those seeds.  With NumSeeds set instead,
// it greedily selects that many seeds maximizing estimated coverage
// (from Candidates, or all nodes when empty).  It requires a
// uniform-rank bottom-k set.
type InfluenceQuery struct {
	Seeds      []int32 `json:"seeds,omitempty"`
	NumSeeds   int     `json:"num_seeds,omitempty"`
	Candidates []int32 `json:"candidates,omitempty"`
	Radius     float64 `json:"radius"`
}

func (q *InfluenceQuery) kind() string { return "influence" }

func (q *InfluenceQuery) validate() error {
	if math.IsNaN(q.Radius) || math.IsInf(q.Radius, 0) || q.Radius < 0 {
		return fmt.Errorf("%w: influence: radius %g, want finite >= 0 (use any radius >= the diameter for full reach)", ErrBadRequest, q.Radius)
	}
	if (len(q.Seeds) == 0) == (q.NumSeeds == 0) {
		return fmt.Errorf("%w: influence: set exactly one of seeds (coverage) or num_seeds (greedy selection)", ErrBadRequest)
	}
	if q.NumSeeds < 0 {
		return fmt.Errorf("%w: influence: num_seeds = %d, want >= 0", ErrBadRequest, q.NumSeeds)
	}
	if len(q.Candidates) > 0 && q.NumSeeds == 0 {
		return fmt.Errorf("%w: influence: candidates only apply to greedy selection (num_seeds)", ErrBadRequest)
	}
	return nil
}

// sketchNodes is the seeds, or the greedy candidates.  An absent
// candidate list means every node served: the whole graph for a
// whole-set engine or a coordinator (an O(n)-sketch scatter, intended for
// explicit candidate pools on large splits), the owned node range for a
// shard engine (shard-local influence).
func (q *InfluenceQuery) sketchNodes(lo int32, n int) []int32 {
	switch {
	case len(q.Seeds) > 0:
		return q.Seeds
	case q.Candidates != nil:
		return q.Candidates
	}
	all := make([]int32, n)
	for i := range all {
		all[i] = lo + int32(i)
	}
	return all
}

func (q *InfluenceQuery) combine(k int, nodes []int32, sketches []*core.ADS) Response {
	if len(q.Seeds) > 0 {
		return Response{Seeds: q.Seeds, Value: scalar(core.UnionNeighborhoodSketches(k, sketches, q.Radius))}
	}
	byNode := make(map[int32]*core.ADS, len(nodes))
	for i, v := range nodes {
		byNode[v] = sketches[i]
	}
	seeds, cov := core.GreedyInfluenceSketches(k, func(v int32) *core.ADS { return byNode[v] },
		nodes, q.NumSeeds, q.Radius)
	return Response{Seeds: seeds, Value: scalar(cov)}
}

// DistanceBoundQuery asks for the 2-hop-cover-style upper bound on
// d(a, b): the minimum of d(a,x) + d(x,b) over nodes x sampled in both
// sketches.  When the engine serves forward sketches, pair it with a
// second engine over backward sketches for directed bounds; on one
// engine both endpoints use forward sketches.  If the sketches share no
// node the response sets Unreachable instead of a value.  It requires a
// uniform-rank bottom-k set.
type DistanceBoundQuery struct {
	A int32 `json:"a"`
	B int32 `json:"b"`
}

func (q *DistanceBoundQuery) kind() string { return "distance_bound" }

func (q *DistanceBoundQuery) validate() error { return nil }

func (q *DistanceBoundQuery) sketchNodes(int32, int) []int32 { return []int32{q.A, q.B} }

func (q *DistanceBoundQuery) combine(_ int, _ []int32, s []*core.ADS) Response {
	bound := core.DistanceUpperBound(s[0], s[1])
	if math.IsInf(bound, 1) {
		return Response{Unreachable: true}
	}
	return Response{Value: scalar(bound)}
}

// SketchQuery asks for the raw bottom-k sketch entries of one node —
// the pairwise-scatter primitive a Coordinator uses to evaluate
// cross-shard jaccard / influence / distance_bound queries, and a
// debugging window into what a serving process holds.  It requires a
// uniform-rank bottom-k set.
type SketchQuery struct {
	Node int32 `json:"node"`
}

func (q *SketchQuery) kind() string { return "sketch" }

func (q *SketchQuery) validate() error { return nil }

func (q *SketchQuery) sketchNodes(int32, int) []int32 { return []int32{q.Node} }

// combine transports the sketch's entries.
func (q *SketchQuery) combine(_ int, _ []int32, s []*core.ADS) Response {
	raw := s[0].Entries()
	entries := make([]SketchEntry, len(raw))
	for i, en := range raw {
		entries[i] = SketchEntry{Node: en.Node, Dist: en.Dist, Rank: en.Rank}
	}
	return Response{Entries: entries}
}

// evaluate answers a validated query from the engine's own sketches,
// one path per family.
func (e *Engine) evaluate(ctx context.Context, q Query) (Response, error) {
	switch q := q.(type) {
	case scoreQuery:
		scores, err := e.batch(ctx, q.scoreNodes(), q.score())
		if err != nil {
			return Response{}, err
		}
		return Response{Scores: scores}, nil
	case *TopKQuery:
		ranking, err := e.topBy(ctx, q.K, q.rankBy())
		if err != nil {
			return Response{}, err
		}
		return Response{Ranking: ranking}, nil
	}
	return e.pairwise(q.(pairwiseQuery))
}

// pairwise evaluates a coordinated query over the engine's own sketches
// of (global) nodes, validating the set and the nodes first.
func (e *Engine) pairwise(q pairwiseQuery) (Response, error) {
	if err := requireCoordinated(e.meta); err != nil {
		return Response{}, err
	}
	nodes := q.sketchNodes(e.meta.Lo, e.set.NumNodes())
	if err := e.checkNodes(nodes); err != nil {
		return Response{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	sketches := make([]*core.ADS, len(nodes))
	for i, v := range nodes {
		sketches[i] = e.set.BottomK(v - e.meta.Lo)
	}
	return q.combine(e.set.K(), nodes, sketches), nil
}

// Do answers one protocol request.  The request must carry exactly one
// query; parameter problems return an error matching ErrBadRequest,
// queries the sketch set cannot answer one matching ErrUnsupportedQuery.
// Results are bit-for-bit identical to the corresponding direct Engine /
// package-level calls on the same sketches.
func (e *Engine) Do(ctx context.Context, req Request) (Response, error) {
	q, err := req.Query()
	if err != nil {
		return Response{}, err
	}
	if err := q.validate(); err != nil {
		return Response{}, err
	}
	// A single engine has no shards to lose, so the policy cannot change
	// its answers — but an unknown value is still a malformed request.
	if _, err := req.partialPolicy(); err != nil {
		return Response{}, err
	}
	resp, err := e.evaluate(ctx, q)
	if err != nil {
		return Response{}, err
	}
	resp.ID = req.ID
	resp.Kind = q.kind()
	return resp, nil
}

// DoBatch answers a batch of protocol requests.  Each request is
// evaluated independently (per-node fan-out inside a query already uses
// the engine's worker pool); a failing request records its error in the
// corresponding Response rather than aborting the batch.  DoBatch itself
// fails only when ctx is done.
func (e *Engine) DoBatch(ctx context.Context, reqs []Request) ([]Response, error) {
	out := make([]Response, len(reqs))
	for i := range reqs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resp, err := e.Do(ctx, reqs[i])
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			out[i] = Response{ID: reqs[i].ID, Error: err.Error()}
			continue
		}
		out[i] = resp
	}
	return out, nil
}
