// Package snapshot is the process-wide warm-up cache behind the experiments
// harness: building and fragmenting a machine is a shared prefix of every
// (workload, policy) run in the recovery experiments, so it is performed once
// per distinct configuration and replayed per policy with kernel.Snapshot /
// Snapshot.Fork. The paper's recovery comparisons (§4, Figs. 5–7, Tables
// 3/5) start every contender from an identical fragmented state; the cache
// makes that identity literal — one warm-up, N forks — without changing a
// single output byte (the fork path is golden-enforced bit-identical to
// fresh construction).
//
// Concurrency: the cache is shared across the parallel runner's workers. A
// per-key sync.Once makes the warm-up single-flight — concurrent requests
// for the same key build once and share the frozen Snapshot — and forking a
// frozen Snapshot is read-only, so concurrent Forks need no further locking.
//
// Determinism: warm-ups are built with a nil policy and tracing disabled.
// This is sound because no policy touches substrate state or consumes the
// engine RNG at Attach (they only schedule daemons, which cannot have fired
// at snapshot time), and tracing is passive by contract — so the machine
// state at the snapshot point is bit-identical to the state a fresh
// policy-attached, optionally-traced machine has after the same warm-up.
package snapshot

import (
	"sync"

	"hawkeye/internal/introspect"
	"hawkeye/internal/kernel"
)

// The cache's process-wide size is observable live: snapshot_cache_entries,
// snapshot_cache_bytes and snapshot_cache_evict on the introspect registry
// (the debug server's /metrics). Stats is mutex-guarded, so the scrape-time
// pull is safe while workers fork.
func init() {
	introspect.RegisterCache("snapshot_cache", func() introspect.CacheStats {
		s := Stats()
		return introspect.CacheStats{
			Entries:       s.Entries,
			ResidentBytes: s.ResidentBytes,
			Evictions:     s.Evictions,
		}
	})
}

// Key identifies one warm-up: the full machine configuration (with the
// non-comparable Engine/Trace pointers normalized to nil) plus the
// fragmentation parameters. kernel.Config is comparable — tlb.Config and
// fault.Model are flat scalar structs — so the key can index a map directly.
type Key struct {
	Cfg    kernel.Config
	Keep   float64
	Pinned float64
}

type cacheEntry struct {
	once sync.Once
	snap *kernel.Snapshot
	// lastFork is the cache-wide sequence number of the entry's most recent
	// use (build or fork), guarded by mu. Eviction removes the entry with
	// the smallest lastFork — least recently forked.
	lastFork int64
}

var (
	mu      sync.Mutex
	entries = make(map[Key]*cacheEntry)

	// budgetBytes caps the summed Snapshot.Bytes of built entries; 0 (the
	// default) means unlimited. forkSeq and evictions are cumulative
	// counters guarded by mu.
	budgetBytes int64
	forkSeq     int64
	evictions   int64
)

// For returns the snapshot of a machine built from cfg and fragmented with
// FragmentMemoryPinned(keep, pinned) (keep <= 0 means no fragmentation:
// freshly constructed state). The first caller for a key builds the warm-up;
// everyone else shares the cached result. cfg.Engine must be nil — machines
// co-simulated on a shared engine cannot be snapshotted — and cfg.Trace is
// ignored for the warm-up (forks attach their own tracing).
func For(cfg kernel.Config, keep, pinned float64) *kernel.Snapshot {
	snap, _ := forUse(cfg, keep, pinned)
	return snap
}

// forUse is For plus bookkeeping: it stamps the entry's fork recency, runs
// byte-budget eviction, and reports how many snapshots this call evicted.
func forUse(cfg kernel.Config, keep, pinned float64) (*kernel.Snapshot, int64) {
	if cfg.Engine != nil {
		panic("snapshot: cache requested for a shared-engine config")
	}
	cfg.Trace = nil
	key := Key{Cfg: cfg, Keep: keep, Pinned: pinned}
	mu.Lock()
	e := entries[key]
	if e == nil {
		e = &cacheEntry{}
		entries[key] = e
	}
	mu.Unlock()
	e.once.Do(func() {
		k := kernel.New(cfg, nil)
		if keep > 0 {
			k.FragmentMemoryPinned(keep, pinned)
		}
		e.snap = k.Snapshot()
	})
	mu.Lock()
	defer mu.Unlock()
	forkSeq++
	e.lastFork = forkSeq
	var evicted int64
	// The entry may have been evicted while we were building or waiting;
	// callers holding the snapshot are unaffected (it is immutable), but
	// only entries still in the map participate in budgeting.
	if cur, ok := entries[key]; ok && cur == e {
		evicted = enforceBudgetLocked(e)
	}
	return e.snap, evicted
}

// enforceBudgetLocked evicts least-recently-forked snapshots until the
// cache fits the byte budget, never evicting keep (the entry being used
// right now) or entries still being built. Returns how many it evicted.
// Caller holds mu.
func enforceBudgetLocked(keep *cacheEntry) int64 {
	if budgetBytes <= 0 {
		return 0
	}
	var n int64
	for residentBytesLocked() > budgetBytes {
		var victimKey Key
		var victim *cacheEntry
		// Selection by unique minimum lastFork: iteration order over the
		// map cannot change which entry wins.
		for k, e := range entries {
			if e == keep || e.snap == nil {
				continue
			}
			if victim == nil || e.lastFork < victim.lastFork {
				//lint:allow determinism victim has the unique smallest lastFork
				victim, victimKey = e, k
			}
		}
		if victim == nil {
			break // nothing evictable: budget smaller than the live snapshot
		}
		delete(entries, victimKey)
		evictions++
		n++
	}
	return n
}

// residentBytesLocked sums the frozen byte footprint of built entries.
// Caller holds mu.
func residentBytesLocked() int64 {
	var total int64
	for _, e := range entries {
		if e.snap != nil {
			//lint:allow determinism order-insensitive integer sum
			total += e.snap.Bytes()
		}
	}
	return total
}

// SetCacheBudget caps the cache's resident snapshot bytes (as reported by
// Snapshot.Bytes); 0 restores the default, unlimited. Lowering the budget
// evicts immediately. With a finite budget, which forks hit or rebuild the
// cache depends on cross-worker timing — eviction counts (and warm-up
// counts) are only run-to-run deterministic under the default unlimited
// budget or single-worker execution; simulation outputs are bit-identical
// regardless, because forks are bit-identical however the warm-up was
// obtained.
func SetCacheBudget(n int64) {
	mu.Lock()
	defer mu.Unlock()
	budgetBytes = n
	enforceBudgetLocked(nil)
}

// CacheStats is a point-in-time view of the cache.
type CacheStats struct {
	Entries       int   // cached snapshots (including ones still building)
	ResidentBytes int64 // summed Snapshot.Bytes of built entries
	Evictions     int64 // cumulative evictions since process start / Reset
}

// Stats reports the cache's current size and cumulative eviction count.
func Stats() CacheStats {
	mu.Lock()
	defer mu.Unlock()
	return CacheStats{
		Entries:       len(entries),
		ResidentBytes: residentBytesLocked(),
		Evictions:     evictions,
	}
}

// Fork is the harness entry point: it resolves (builds or reuses) the warm-up
// snapshot for cfg and forks a machine from it with the given policy and
// cfg.Trace attached. The result is bit-identical to
//
//	k := kernel.New(cfg, pol)
//	if keep > 0 { k.FragmentMemoryPinned(keep, pinned) }
//
// on a fresh machine, minus the warm-up cost on every call after the first.
//
// When tracing is attached, the forked machine's recorder carries the cache
// counters: snapshot_cache_bytes (the frozen footprint of the image this
// machine forked from — per-snapshot, hence deterministic) and
// snapshot_cache_evict (snapshots this fork's cache visit evicted; always 0
// under the default unlimited budget).
func Fork(cfg kernel.Config, pol kernel.Policy, keep, pinned float64) *kernel.Kernel {
	tr := cfg.Trace
	snap, evicted := forUse(cfg, keep, pinned)
	k := snap.Fork(pol, tr)
	introspect.CountCacheAttach(k.Trace, "snapshot_cache", snap.Bytes(), evicted)
	return k
}

// Reset drops every cached snapshot and zeroes the recency/eviction
// counters (test isolation / memory release). The byte budget is
// configuration, not cache state, and survives Reset.
func Reset() {
	mu.Lock()
	entries = make(map[Key]*cacheEntry)
	forkSeq = 0
	evictions = 0
	mu.Unlock()
}
