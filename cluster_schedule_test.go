package adsketch_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"adsketch"
)

// loggedShard records, in one log shared by a replica group, the order
// in which a shard call attempted its backends.
type loggedShard struct {
	*faultShard
	name string
	mu   *sync.Mutex
	log  *[]string
}

func (s loggedShard) DoBatch(ctx context.Context, reqs []adsketch.Request) ([]adsketch.Response, error) {
	s.mu.Lock()
	*s.log = append(*s.log, s.name)
	s.mu.Unlock()
	return s.faultShard.DoBatch(ctx, reqs)
}

// TestShardCallSchedule pins the attempt schedule of one shard call on a
// primary p and a replica r: the order in which the backends were
// attempted and every ShardCallStats counter, exactly, with hedging off
// and on, for 0 and 1 retries.  Attempts walk p, r, p, r, ...; a
// deterministic error stops the call; a hedge starts the next attempt
// beside a slow one, and after it each failed attempt is replaced by the
// next ("slow and dead": a slow primary, a dead replica).
func TestShardCallSchedule(t *testing.T) {
	_, set, _ := buildEngine(t)
	eng := shardEngines(t, set, 1)[0]
	badRequest := fmt.Errorf("shard-side rejection: %w", adsketch.ErrBadRequest)
	faults := map[string]func(p, r *faultShard){
		"primary dead":  func(p, _ *faultShard) { p.kill() },
		"primary slow":  func(p, _ *faultShard) { p.delay = time.Minute },
		"all dead":      func(p, r *faultShard) { p.kill(); r.kill() },
		"slow and dead": func(p, r *faultShard) { p.delay = time.Minute; r.kill() },
		"bad request":   func(p, _ *faultShard) { p.err = badRequest; p.kill() },
	}
	type stats = adsketch.ShardCallStats
	for _, tc := range []struct {
		fault   string
		hedge   bool
		retries int
		order   string
		err     error // the call's error class; nil when it answers
		want    stats
	}{
		{"primary dead", false, 0, "p r", nil, stats{Calls: 1, Errors: 1, Retries: 1}},
		{"primary dead", false, 1, "p r", nil, stats{Calls: 1, Errors: 1, Retries: 1}},
		{"primary dead", true, 0, "p r", nil, stats{Calls: 1, Errors: 1, Retries: 1}},
		{"primary dead", true, 1, "p r", nil, stats{Calls: 1, Errors: 1, Retries: 1}},
		{"primary slow", false, 0, "p r", nil, stats{Calls: 1, Errors: 1, Timeouts: 1, Retries: 1}},
		{"primary slow", false, 1, "p r", nil, stats{Calls: 1, Errors: 1, Timeouts: 1, Retries: 1}},
		{"primary slow", true, 0, "p r", nil, stats{Calls: 1, Hedges: 1, HedgeWins: 1}},
		{"primary slow", true, 1, "p r", nil, stats{Calls: 1, Hedges: 1, HedgeWins: 1}},
		{"all dead", false, 0, "p r", errInjected, stats{Calls: 1, Errors: 2, Retries: 1, Failures: 1}},
		{"all dead", false, 1, "p r p r", errInjected, stats{Calls: 1, Errors: 4, Retries: 3, Failures: 1}},
		{"all dead", true, 0, "p r", errInjected, stats{Calls: 1, Errors: 2, Retries: 1, Failures: 1}},
		{"all dead", true, 1, "p r p r", errInjected, stats{Calls: 1, Errors: 4, Retries: 3, Failures: 1}},
		{"slow and dead", false, 0, "p r", context.DeadlineExceeded, stats{Calls: 1, Errors: 2, Timeouts: 1, Retries: 1, Failures: 1}},
		{"slow and dead", false, 1, "p r p r", context.DeadlineExceeded, stats{Calls: 1, Errors: 4, Timeouts: 2, Retries: 3, Failures: 1}},
		{"slow and dead", true, 0, "p r", errInjected, stats{Calls: 1, Errors: 2, Timeouts: 1, Hedges: 1, Failures: 1}},
		{"slow and dead", true, 1, "p r p r", errInjected, stats{Calls: 1, Errors: 4, Timeouts: 2, Retries: 2, Hedges: 1, Failures: 1}},
		{"bad request", false, 0, "p", adsketch.ErrBadRequest, stats{Calls: 1, Errors: 1, Failures: 1}},
		{"bad request", false, 1, "p", adsketch.ErrBadRequest, stats{Calls: 1, Errors: 1, Failures: 1}},
		{"bad request", true, 0, "p", adsketch.ErrBadRequest, stats{Calls: 1, Errors: 1, Failures: 1}},
		{"bad request", true, 1, "p", adsketch.ErrBadRequest, stats{Calls: 1, Errors: 1, Failures: 1}},
	} {
		name := fmt.Sprintf("%s/hedge=%v/retries=%d", tc.fault, tc.hedge, tc.retries)
		var mu sync.Mutex
		var log []string
		p, r := &faultShard{ShardBackend: eng}, &faultShard{ShardBackend: eng}
		faults[tc.fault](p, r)
		opts := []adsketch.CoordinatorOption{
			adsketch.WithShardTimeout(250 * time.Millisecond),
			adsketch.WithShardRetries(tc.retries),
			adsketch.WithRetryBackoff(time.Millisecond),
		}
		if tc.hedge {
			opts = append(opts, adsketch.WithHedgeDelay(20*time.Millisecond))
		}
		coord, err := adsketch.NewReplicatedCoordinator([][]adsketch.ShardBackend{{
			loggedShard{p, "p", &mu, &log}, loggedShard{r, "r", &mu, &log},
		}}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		_, err = coord.Do(context.Background(), adsketch.Request{Closeness: &adsketch.ClosenessQuery{Nodes: []int32{0}}})
		switch {
		case tc.err == nil && err != nil:
			t.Errorf("%s: call failed: %v", name, err)
		case tc.err != nil && (!errors.Is(err, tc.err) || !strings.HasPrefix(err.Error(), "shard 0: ")):
			t.Errorf("%s: error %v, want %v tagged shard 0", name, err, tc.err)
		}
		mu.Lock()
		order := strings.Join(log, " ")
		mu.Unlock()
		if order != tc.order {
			t.Errorf("%s: attempted %q, want %q", name, order, tc.order)
		}
		want := tc.want
		want.Replicas = 1
		if got := coord.Stats().Shards[0]; got != want {
			t.Errorf("%s: stats %+v, want %+v", name, got, want)
		}
	}
}
