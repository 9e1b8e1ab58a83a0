package catalog

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// opener returns an Opener producing the given value/cost, counting opens
// and wiring a release counter.
func opener(value string, cost int64, opens, releases *atomic.Int64) Opener[string] {
	return func() (string, int64, func(), error) {
		if opens != nil {
			opens.Add(1)
		}
		rel := func() {}
		if releases != nil {
			rel = func() { releases.Add(1) }
		}
		return value, cost, rel, nil
	}
}

func TestAttachAcquireDetach(t *testing.T) {
	r := New[string](0)
	var releases atomic.Int64
	if err := r.Attach("a", opener("v1", 100, nil, &releases), false); err != nil {
		t.Fatal(err)
	}
	if err := r.Attach("a", opener("v1", 100, nil, nil), false); !errors.Is(err, ErrExists) {
		t.Fatalf("double attach: %v, want ErrExists", err)
	}
	h, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if h.Value != "v1" || h.Version != 1 {
		t.Fatalf("handle = (%q, v%d), want (v1, v1)", h.Value, h.Version)
	}
	if _, err := r.Acquire("nope"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown acquire: %v, want ErrUnknown", err)
	}
	if err := r.Detach("a"); err != nil {
		t.Fatal(err)
	}
	if releases.Load() != 0 {
		t.Fatal("release fired while a handle was live")
	}
	h.Release()
	if releases.Load() != 1 {
		t.Fatalf("releases = %d after last handle dropped, want 1", releases.Load())
	}
	h.Release() // idempotent
	if releases.Load() != 1 {
		t.Fatal("double Release fired the hook twice")
	}
	if err := r.Detach("a"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("double detach: %v, want ErrUnknown", err)
	}
}

// A swap retires the old version: new acquires see the new value at once,
// while the old version's release waits for its last in-flight reader.
func TestSwapDrainsOldVersion(t *testing.T) {
	r := New[string](0)
	var rel1, rel2 atomic.Int64
	if err := r.Attach("d", opener("old", 10, nil, &rel1), false); err != nil {
		t.Fatal(err)
	}
	h1, _ := r.Acquire("d")
	v, err := r.Swap("d", opener("new", 10, nil, &rel2), false)
	if err != nil || v != 2 {
		t.Fatalf("Swap = (%d, %v), want (2, nil)", v, err)
	}
	h2, _ := r.Acquire("d")
	if h2.Value != "new" || h2.Version != 2 {
		t.Fatalf("post-swap acquire = (%q, v%d), want (new, v2)", h2.Value, h2.Version)
	}
	if h1.Value != "old" {
		t.Fatal("pinned handle's value changed under swap")
	}
	st := stats(r)[0]
	if st.Draining != 1 || st.Version != 2 || st.Refs != 1 {
		t.Fatalf("stats during drain: %+v", st)
	}
	if rel1.Load() != 0 {
		t.Fatal("old version released while still read")
	}
	h1.Release()
	if rel1.Load() != 1 {
		t.Fatal("old version not released after last reader")
	}
	if st := stats(r)[0]; st.Draining != 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
	h2.Release()
	if rel2.Load() != 0 {
		t.Fatal("current version released without retirement")
	}
	r.Close()
	if rel2.Load() != 1 {
		t.Fatal("Close did not release the current version")
	}
}

// A failing opener must leave the old version serving.
func TestSwapFailureKeepsOldVersion(t *testing.T) {
	r := New[string](0)
	if err := r.Attach("d", opener("old", 10, nil, nil), false); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	bad := func() (string, int64, func(), error) { return "", 0, nil, boom }
	if _, err := r.Swap("d", bad, false); !errors.Is(err, boom) {
		t.Fatalf("Swap error = %v, want boom", err)
	}
	h, err := r.Acquire("d")
	if err != nil || h.Value != "old" || h.Version != 1 {
		t.Fatalf("after failed swap: (%q, v%d, %v), want (old, v1, nil)", h.Value, h.Version, err)
	}
	h.Release()
}

// Swap on an unattached name attaches it at version 1.
func TestSwapAttaches(t *testing.T) {
	r := New[string](0)
	v, err := r.Swap("fresh", opener("x", 1, nil, nil), false)
	if err != nil || v != 1 {
		t.Fatalf("Swap on fresh name = (%d, %v), want (1, nil)", v, err)
	}
	h, err := r.Acquire("fresh")
	if err != nil || h.Value != "x" {
		t.Fatalf("acquire after swap-attach: %v", err)
	}
	h.Release()
}

// Idle reloadable entries are evicted LRU-first when the resident cost
// exceeds the budget, and reload transparently on the next acquire.
func TestEvictionBudgetLRU(t *testing.T) {
	r := New[string](250)
	var opensA, opensB, opensC, releases atomic.Int64
	for _, d := range []struct {
		name  string
		opens *atomic.Int64
	}{{"a", &opensA}, {"b", &opensB}, {"c", &opensC}} {
		if err := r.Attach(d.name, opener(d.name, 100, d.opens, &releases), true); err != nil {
			t.Fatal(err)
		}
	}
	// Attaching 3×100 bytes against a 250 budget evicts the LRU entry
	// ("a": never acquired, lowest clock).
	if got := r.Resident(); got != 200 {
		t.Fatalf("resident = %d after attach wave, want 200", got)
	}
	sts := stats(r)
	if sts[0].Name != "a" || sts[0].Resident || sts[0].Evictions != 1 {
		t.Fatalf("expected a evicted: %+v", sts[0])
	}
	if !sts[1].Resident || !sts[2].Resident {
		t.Fatalf("b/c should be resident: %+v %+v", sts[1], sts[2])
	}
	if releases.Load() != 1 {
		t.Fatalf("eviction releases = %d, want 1", releases.Load())
	}

	// Touch b (making c the LRU), then reload a: c must be the next victim.
	hb, _ := r.Acquire("b")
	hb.Release()
	ha, err := r.Acquire("a")
	if err != nil {
		t.Fatal(err)
	}
	if opensA.Load() != 2 {
		t.Fatalf("a opens = %d, want 2 (attach + reload)", opensA.Load())
	}
	ha.Release() // release path re-runs maintain: 300 resident > 250
	sts = stats(r)
	byName := map[string]Stats{}
	for _, st := range sts {
		byName[st.Name] = st
	}
	if !byName["a"].Resident || !byName["b"].Resident || byName["c"].Resident {
		t.Fatalf("want c evicted after a reload: %+v", byName)
	}
	if got := r.Resident(); got != 200 {
		t.Fatalf("resident = %d, want 200", got)
	}
}

// Entries pinned by a handle are never evicted, whatever the budget.
func TestEvictionSkipsPinned(t *testing.T) {
	r := New[string](50)
	if err := r.Attach("big", opener("big", 100, nil, nil), true); err != nil {
		t.Fatal(err)
	}
	h, err := r.Acquire("big")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Attach("other", opener("other", 100, nil, nil), true); err != nil {
		t.Fatal(err)
	}
	sts := stats(r)
	byName := map[string]Stats{}
	for _, st := range sts {
		byName[st.Name] = st
	}
	if !byName["big"].Resident {
		t.Fatal("pinned entry was evicted")
	}
	if byName["other"].Resident {
		t.Fatal("idle entry survived over budget")
	}
	h.Release()
}

// Non-reloadable entries are never evicted: without an opener that can
// rebuild them, eviction would lose data.
func TestEvictionSkipsNonReloadable(t *testing.T) {
	r := New[string](50)
	if err := r.Attach("mem", opener("mem", 100, nil, nil), false); err != nil {
		t.Fatal(err)
	}
	if st := stats(r)[0]; !st.Resident {
		t.Fatal("non-reloadable entry evicted")
	}
}

// Hammer one entry with concurrent acquires while swapping it, asserting
// every handle sees a coherent (value, version) pair and that every
// version's release fires exactly once, only after its readers are done.
func TestConcurrentSwapAcquire(t *testing.T) {
	r := New[int](0)
	const versions = 50
	released := make([]atomic.Int64, versions+1)
	mk := func(v int) Opener[int] {
		return func() (int, int64, func(), error) {
			return v, 1, func() { released[v].Add(1) }, nil
		}
	}
	if err := r.Attach("d", mk(1), false); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h, err := r.Acquire("d")
				if err != nil {
					t.Errorf("Acquire: %v", err)
					return
				}
				if h.Value != h.Version {
					t.Errorf("handle value %d != version %d", h.Value, h.Version)
				}
				if released[h.Value].Load() != 0 {
					t.Errorf("reading version %d after its release", h.Value)
				}
				h.Release()
			}
		}()
	}
	for v := 2; v <= versions; v++ {
		if _, err := r.Swap("d", mk(v), false); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	r.Close()
	for v := 1; v <= versions; v++ {
		if got := released[v].Load(); got != 1 {
			t.Errorf("version %d released %d times, want 1", v, got)
		}
	}
}

// Concurrent attaches of the same name: exactly one wins, and every
// loser that got as far as opening a version has it released again.
func TestConcurrentAttachOneWinner(t *testing.T) {
	r := New[string](0)
	var opens, releases atomic.Int64
	var wins atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			err := r.Attach("d", opener(fmt.Sprintf("g%d", g), 1, &opens, &releases), false)
			if err == nil {
				wins.Add(1)
			} else if !errors.Is(err, ErrExists) {
				t.Errorf("Attach: %v", err)
			}
		}(g)
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Fatalf("%d attach winners, want 1", wins.Load())
	}
	if releases.Load() != opens.Load()-1 {
		t.Fatalf("releases = %d for %d opens, want opens-1 (only the winner stays)", releases.Load(), opens.Load())
	}
}

// Concurrent acquires of an evicted entry may each run the opener (the
// reload happens outside the registry lock so other datasets never
// stall behind it); exactly one copy is installed per reload and every
// opened copy is released exactly once by the time the registry closes.
func TestConcurrentReloadDiscardsLosers(t *testing.T) {
	r := New[string](1) // budget below cost: the entry evicts whenever idle
	var opens, releases atomic.Int64
	if err := r.Attach("d", opener("d", 100, &opens, &releases), true); err != nil {
		t.Fatal(err)
	}
	if st := stats(r)[0]; st.Resident {
		t.Fatal("over-budget idle entry not evicted at attach")
	}
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h, err := r.Acquire("d")
				if err != nil {
					t.Errorf("Acquire: %v", err)
					return
				}
				if h.Value != "d" {
					t.Errorf("reloaded value %q", h.Value)
				}
				h.Release() // last release re-evicts (still over budget)
			}()
		}
		wg.Wait()
	}
	r.Close()
	if opens.Load() < 20 {
		t.Fatalf("opens = %d, want >= one per round", opens.Load())
	}
	if releases.Load() != opens.Load() {
		t.Fatalf("releases = %d for %d opens; every opened copy must be released exactly once", releases.Load(), opens.Load())
	}
}

func TestNamesAndStatsSorted(t *testing.T) {
	r := New[string](0)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := r.Attach(n, opener(n, 1, nil, nil), false); err != nil {
			t.Fatal(err)
		}
	}
	names := r.Names()
	want := []string{"alpha", "mid", "zeta"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	sts := stats(r)
	for i, n := range want {
		if sts[i].Name != n {
			t.Fatalf("Stats() order = %v", sts)
		}
	}
}

// stats snapshots every entry's lifecycle counters, sorted by name.
func stats[T any](r *Registry[T]) []Stats {
	var out []Stats
	r.Each(func(st Stats, _ T, _ bool) { out = append(out, st) })
	return out
}
