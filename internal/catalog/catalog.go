// Package catalog implements the machinery of a named, versioned dataset
// registry: concurrency-safe attach/swap/detach with ref-counted version
// handles, drain-on-swap semantics (a swapped-out version's resources are
// released only when its last in-flight reader finishes), and LRU
// eviction of idle reloadable entries under a memory budget.
//
// The package is generic over what an entry holds — the adsketch root
// package instantiates it with serving backends (Engine / Coordinator),
// but nothing here knows about sketches.  The contract with the caller:
//
//   - an Opener materializes one version of an entry: the served value,
//     its resident cost in bytes, and a release hook run exactly once
//     when the version is retired (swapped out, detached, or evicted)
//     and its last reader released;
//   - openers and release hooks must not call back into the registry
//     (Acquire may run an opener while holding the registry lock);
//   - every Acquire must be paired with exactly one Handle.Release (the
//     per-query hot path, View, pairs them internally).
//
// Pinning is built for the serving hot path: taking a reference is one
// short critical section, dropping one is an atomic decrement (the slow
// path — draining a retired version, enforcing the budget — locks only
// when there is such work to do).
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Typed sentinel errors; match with errors.Is.
var (
	// ErrUnknown reports an operation on a name with no attached entry.
	ErrUnknown = errors.New("catalog: unknown entry")
	// ErrExists reports an Attach of a name that is already attached.
	ErrExists = errors.New("catalog: entry already attached")
)

// Opener materializes one version of an entry.  It returns the value to
// serve, the value's resident memory cost in bytes (0 when the value is
// effectively free to hold, e.g. file-backed mmap pages), and an optional
// release hook run exactly once when the version's last reference drops
// after it has been retired.
type Opener[T any] func() (value T, cost int64, release func(), err error)

// version is one materialized version of an entry.  refs and retired are
// touched lock-free on the unpin fast path; everything else is guarded
// by the registry mutex.
type version[T any] struct {
	value   T
	cost    int64
	release func()
	refs    atomic.Int64 // live readers
	retired atomic.Bool  // swapped out, detached, or evicted
	counted bool         // retired with live refs: counted in entry.draining
	drained bool         // release hook fired (or queued)
}

// entry is one named dataset: its current version (nil while evicted),
// its opener (for eviction reload), and bookkeeping.  Guarded by the
// registry mutex.
type entry[T any] struct {
	name       string
	version    int // current version number, 1-based, bumped by every swap
	open       Opener[T]
	reloadable bool
	cur        *version[T] // nil when evicted
	lastUsed   int64       // registry clock tick of the last pin
	evictions  int64
	draining   int // retired versions still holding references
}

// Stats is a point-in-time snapshot of one entry's lifecycle counters.
type Stats struct {
	// Name is the entry's registry key.
	Name string
	// Version is the current version number (1 on first attach).
	Version int
	// Refs counts live pins on the current version.
	Refs int
	// Draining counts retired versions still held by in-flight readers.
	Draining int
	// Resident reports whether the current version is materialized (an
	// evicted entry reloads on the next pin).
	Resident bool
	// Reloadable reports whether the entry can be evicted and reloaded.
	Reloadable bool
	// Cost is the resident byte cost of the current version (0 when
	// evicted).
	Cost int64
	// Evictions counts how many times the entry has been evicted.
	Evictions int64
}

// Registry is a concurrency-safe map of named, versioned values.  The
// zero value is not usable; construct with New.
type Registry[T any] struct {
	mu       sync.Mutex
	budget   int64                // resident-cost budget in bytes; 0 = unlimited
	entries  map[string]*entry[T] // guarded by mu
	clock    int64                // guarded by mu; LRU tick, bumped on pin
	resident atomic.Int64         // summed cost of materialized versions (incl. draining)
	// evictable counts resident current versions the budget could evict
	// (reloadable, non-zero cost).  The unpin fast path reads it so an
	// over-budget registry whose mass is all unevictable — in-memory or
	// mmap datasets — does not fall into a fruitless lock-and-scan on
	// every query release.
	evictable atomic.Int64
}

// New returns an empty registry.  budget bounds the summed resident cost
// of materialized versions: when exceeded, idle (refs == 0) reloadable
// entries are evicted in LRU order.  budget <= 0 disables eviction.
func New[T any](budget int64) *Registry[T] {
	if budget < 0 {
		budget = 0
	}
	return &Registry[T]{budget: budget, entries: make(map[string]*entry[T])}
}

// Budget returns the configured resident-cost budget (0 = unlimited).
func (r *Registry[T]) Budget() int64 { return r.budget }

// Resident returns the summed resident cost of materialized versions,
// including retired versions still draining.
func (r *Registry[T]) Resident() int64 { return r.resident.Load() }

// Attach registers a new entry under name, materializing its first
// version immediately (so a bad opener fails the attach, not a later
// query).  It fails with ErrExists when the name is taken.
func (r *Registry[T]) Attach(name string, open Opener[T], reloadable bool) error {
	r.mu.Lock()
	_, taken := r.entries[name]
	r.mu.Unlock()
	if taken {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	value, cost, release, err := open()
	if err != nil {
		return err
	}
	var fire []func()
	defer runAll(&fire)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, taken := r.entries[name]; taken {
		// Lost a race with a concurrent Attach: discard our version.
		if release != nil {
			fire = append(fire, release)
		}
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	e := &entry[T]{name: name, version: 1, open: open, reloadable: reloadable}
	e.cur = &version[T]{value: value, cost: cost, release: release}
	r.clock++
	e.lastUsed = r.clock
	r.entries[name] = e
	r.resident.Add(cost)
	r.countInstalled(e)
	r.maintain(&fire)
	return nil
}

// countInstalled / countRemoved keep the evictable counter in step with
// e.cur transitions.  Callers hold the lock and invoke them with the
// entry's reloadable flag as it was when the version was current.
func (r *Registry[T]) countInstalled(e *entry[T]) {
	if e.reloadable && e.cur != nil && e.cur.cost > 0 {
		r.evictable.Add(1)
	}
}

func (r *Registry[T]) countRemoved(old *version[T], wasReloadable bool) {
	if wasReloadable && old != nil && old.cost > 0 {
		r.evictable.Add(-1)
	}
}

// Swap atomically publishes a new version of name (attaching it when
// absent) and returns the new version number.  The new version is
// materialized before the old one is retired, so a failing opener leaves
// the old version serving untouched; the old version's release hook runs
// once its last in-flight reader releases.
func (r *Registry[T]) Swap(name string, open Opener[T], reloadable bool) (int, error) {
	value, cost, release, err := open()
	if err != nil {
		return 0, err
	}
	var fire []func()
	defer runAll(&fire)
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[name]
	if e == nil {
		e = &entry[T]{name: name}
		r.entries[name] = e
	}
	e.version++
	e.open = open
	old, wasReloadable := e.cur, e.reloadable
	e.reloadable = reloadable
	r.clock++
	e.lastUsed = r.clock
	e.cur = &version[T]{value: value, cost: cost, release: release}
	r.resident.Add(cost)
	r.countRemoved(old, wasReloadable)
	r.countInstalled(e)
	r.retire(e, old, &fire)
	r.maintain(&fire)
	return e.version, nil
}

// Detach removes name from the registry.  The current version's release
// hook runs once its last in-flight reader releases (immediately when
// idle).
func (r *Registry[T]) Detach(name string) error {
	var fire []func()
	defer runAll(&fire)
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[name]
	if e == nil {
		return fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	delete(r.entries, name)
	old := e.cur
	e.cur = nil
	r.countRemoved(old, e.reloadable)
	r.retire(e, old, &fire)
	return nil
}

// Close detaches every entry.  Versions held by in-flight readers drain
// as usual.
func (r *Registry[T]) Close() {
	var fire []func()
	defer runAll(&fire)
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, e := range r.entries {
		delete(r.entries, name)
		old := e.cur
		e.cur = nil
		r.countRemoved(old, e.reloadable)
		r.retire(e, old, &fire)
	}
}

// pin takes a reference on name's current version, reloading an evicted
// entry through its opener first.  The opener runs outside the registry
// lock — a slow file decode must not stall queries on other datasets —
// so concurrent pins of the same evicted entry may both open; the loser
// discards its copy and uses the installed one.  pin returns the version
// number observed under the lock; the caller must pair it with unpin.
func (r *Registry[T]) pin(name string) (*entry[T], *version[T], int, error) {
	var fire []func()
	defer runAll(&fire)
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		e := r.entries[name]
		if e == nil {
			return nil, nil, 0, fmt.Errorf("%w: %q", ErrUnknown, name)
		}
		if e.cur != nil {
			if r.budget > 0 {
				// LRU position only matters when eviction is on.
				r.clock++
				e.lastUsed = r.clock
			}
			e.cur.refs.Add(1)
			return e, e.cur, e.version, nil
		}
		open, vn := e.open, e.version
		r.mu.Unlock()
		value, cost, release, err := open()
		r.mu.Lock()
		if err != nil {
			return nil, nil, 0, fmt.Errorf("catalog: reloading evicted entry %q: %w", name, err)
		}
		// Re-check: a swap, detach, or concurrent reload may have run
		// while the opener did.  If this entry's slot is no longer ours
		// to fill, discard our copy and take whatever is current now.
		if cur := r.entries[name]; cur != e || e.version != vn || e.cur != nil {
			if release != nil {
				fire = append(fire, release)
			}
			continue
		}
		e.cur = &version[T]{value: value, cost: cost, release: release}
		r.resident.Add(cost)
		r.countInstalled(e)
		// No maintain here: evicting another idle entry to make room is
		// handled on the unpin path, and the just-loaded entry is about
		// to be referenced.
	}
}

// unpin drops a reference, lock-free unless there is slow-path work: the
// last reader of a retired version fires its release, and an over-budget
// registry runs an eviction pass once the unpinned entry is idle.
func (r *Registry[T]) unpin(e *entry[T], v *version[T]) {
	if v.refs.Add(-1) != 0 {
		return
	}
	if !v.retired.Load() &&
		(r.budget <= 0 || r.resident.Load() <= r.budget || r.evictable.Load() == 0) {
		return
	}
	var fire []func()
	defer runAll(&fire)
	r.mu.Lock()
	defer r.mu.Unlock()
	if v.retired.Load() && v.refs.Load() == 0 {
		r.drain(e, v, &fire)
	}
	r.maintain(&fire)
}

// Handle is a pinned reference to one version of an entry.  The value is
// guaranteed to stay valid — in particular, a version swapped out or
// evicted underneath the handle is not released — until Release.
type Handle[T any] struct {
	// Value is the pinned version's value.
	Value T
	// Version is the pinned version's number.
	Version int

	r        *Registry[T]
	e        *entry[T]
	v        *version[T]
	released atomic.Bool
}

// Release drops the handle's reference.  It is idempotent; the version's
// release hook runs when the last reference of a retired version drops.
func (h *Handle[T]) Release() {
	if h.released.CompareAndSwap(false, true) {
		h.r.unpin(h.e, h.v)
	}
}

// Acquire pins the current version of name and returns a handle on it.
// It fails with ErrUnknown for unattached names.
func (r *Registry[T]) Acquire(name string) (*Handle[T], error) {
	e, v, vn, err := r.pin(name)
	if err != nil {
		return nil, err
	}
	return &Handle[T]{Value: v.value, Version: vn, r: r, e: e, v: v}, nil
}

// AcquireResident pins name's current version only when it is already
// materialized, never running an opener and never bumping the LRU clock
// — the monitoring-path primitive, which must neither trigger a reload
// nor keep an otherwise-idle entry hot.  It returns nil when the name is
// unknown or evicted.
func (r *Registry[T]) AcquireResident(name string) *Handle[T] {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[name]
	if e == nil || e.cur == nil {
		return nil
	}
	e.cur.refs.Add(1)
	return &Handle[T]{Value: e.cur.value, Version: e.version, r: r, e: e, v: e.cur}
}

// View runs f on the pinned current version of name, dropping the pin
// when f returns — Acquire/Release without the handle allocation, for
// the per-query hot path.
func (r *Registry[T]) View(name string, f func(value T, version int) error) error {
	e, v, vn, err := r.pin(name)
	if err != nil {
		return err
	}
	defer r.unpin(e, v)
	return f(v.value, vn)
}

// Names returns the attached entry names, sorted.
func (r *Registry[T]) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Each calls f once per entry, sorted by name, under the registry lock.
// For resident entries, value is the current version's value (resident
// true); for evicted ones it is the zero T.  f must be fast and must not
// call back into the registry.
func (r *Registry[T]) Each(f func(st Stats, value T, resident bool)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := r.entries[name]
		st := Stats{
			Name:       e.name,
			Version:    e.version,
			Draining:   e.draining,
			Resident:   e.cur != nil,
			Reloadable: e.reloadable,
			Evictions:  e.evictions,
		}
		var value T
		if e.cur != nil {
			st.Refs = int(e.cur.refs.Load())
			st.Cost = e.cur.cost
			value = e.cur.value
		}
		f(st, value, e.cur != nil)
	}
}

// retire marks old as retired, draining it immediately when idle or
// recording it as draining otherwise.  Caller holds the lock.
//
// A reader may race the idleness check: it decrements refs lock-free and
// only takes the lock (to drain) if it both hit zero and saw retired.
// Whichever side runs drain second finds v.drained set and backs off, so
// the release hook fires exactly once.
func (r *Registry[T]) retire(e *entry[T], old *version[T], fire *[]func()) {
	if old == nil {
		return
	}
	old.retired.Store(true)
	if old.refs.Load() == 0 {
		r.drain(e, old, fire)
	} else {
		old.counted = true
		e.draining++
	}
}

// drain finishes a retired version whose last reference has dropped:
// fires its release hook once and returns its cost to the budget.
// Caller holds the lock.
func (r *Registry[T]) drain(e *entry[T], v *version[T], fire *[]func()) {
	if v.drained {
		return
	}
	v.drained = true
	if v.counted {
		v.counted = false
		e.draining--
	}
	r.resident.Add(-v.cost)
	if v.release != nil {
		*fire = append(*fire, v.release)
		v.release = nil
	}
}

// maintain enforces the resident-cost budget: while over budget, the
// least-recently-used idle reloadable entry is evicted (its version
// retired and drained, its slot left for lazy reload).  Caller holds the
// lock; releases are appended to fire for the caller to run unlocked.
func (r *Registry[T]) maintain(fire *[]func()) {
	if r.budget <= 0 {
		return
	}
	for r.resident.Load() > r.budget {
		var victim *entry[T]
		for _, e := range r.entries {
			if e.cur == nil || e.cur.refs.Load() > 0 || !e.reloadable || e.cur.cost == 0 {
				continue
			}
			if victim == nil || e.lastUsed < victim.lastUsed {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		old := victim.cur
		victim.cur = nil
		victim.evictions++
		r.countRemoved(old, victim.reloadable)
		old.retired.Store(true)
		r.drain(victim, old, fire)
	}
}

// runAll runs deferred release hooks outside the registry lock.
func runAll(fire *[]func()) {
	for _, f := range *fire {
		f()
	}
}
