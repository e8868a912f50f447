package serve

import (
	"container/list"
	"sync"

	"repro/internal/core"
)

// Per-dataset response cache.
//
// Served answers are pure functions of (seed, dataset name, data
// fingerprint, stream domain, stream id, seq, query identity) — that is
// the replay contract — so a repeated query key MUST produce the
// byte-identical answer whether it is recomputed or returned from a
// cache. The cache exploits the other direction of that purity: once an
// answer for a key exists, replaying the key releases nothing new (the
// adversary already holds the exact bytes), so the DP cost of the first
// computation covers every replay. A cache hit therefore skips BOTH the
// ledger debit and the Phase-2 noise draw.
//
// The cache is keyed by the full query identity. Anything that changes
// the answer changes the key or the cache instance: the data
// fingerprint is not part of the key because a re-ingest under the same
// name constructs a new Dataset and with it a new, empty cache — stale
// answers cannot survive an ingest.
//
// Concurrency: the first session to miss a key becomes its owner and
// computes (debiting the ledger exactly once); sessions that arrive
// while the computation is in flight wait on the entry and receive the
// owner's answer without spending. If the owner fails (typically
// ErrBudgetExceeded), the entry is aborted and each waiter retries —
// one becomes the new owner, so an error never caches.

// DefaultMaxCacheEntries is the per-dataset response-cache capacity used
// when Config.MaxCacheEntries is zero. Entries are whole answers; a
// cached level view holds its full cell histogram (4^rounds float64s at
// the deepest level), so deployments serving deep levels to many
// replayed streams should size this against memory deliberately.
const DefaultMaxCacheEntries = 1024

// cacheKey is a query's full identity within one dataset incarnation.
// domain separates pinned from auto stream-id spaces, mirroring the
// stream derivation itself.
type cacheKey struct {
	domain uint64
	stream uint64
	seq    uint64
	kind   uint8
	level  int32
	side   uint8
	k      int32
}

// cachedView is a retained level view: the count release plus a deep
// copy of the cell histogram (the live one lives in a session's engine
// buffer and is overwritten by its next query).
type cachedView struct {
	count core.LevelRelease
	cells core.CellRelease
}

// cacheEntry is one key's lifecycle: born in-flight (owner computing,
// ready open), then either completed (payload set, ok=true, entered
// into the LRU) or aborted (ok=false, removed from the map) — both
// signalled by closing ready.
type cacheEntry struct {
	key   cacheKey
	ready chan struct{}
	ok    bool

	marginals []float64
	topk      []int
	view      *cachedView

	elem *list.Element // non-nil once completed and LRU-resident
}

// respCache is the per-dataset bounded LRU + singleflight. max is the
// capacity, fixed when the dataset is built (Config.MaxCacheEntries); a
// non-positive capacity disables the cache entirely.
type respCache struct {
	max int

	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	lru     *list.List // completed entries, front = most recently used

	hits, misses uint64
}

func newRespCache(max int) *respCache {
	return &respCache{
		max:     max,
		entries: make(map[cacheKey]*cacheEntry),
		lru:     list.New(),
	}
}

// enabled reports whether queries should consult the cache at all.
func (c *respCache) enabled() bool { return c != nil && c.max > 0 }

// acquire returns the entry for key and whether the caller owns its
// computation. Non-owners must wait on entry.ready; if the entry was
// aborted (ok false) they retry acquire. Owners must call complete or
// abort exactly once.
func (c *respCache) acquire(key cacheKey) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.hits++
		return e, false
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	return e, true
}

// complete publishes an owner's computed entry: it joins the LRU, the
// cache is trimmed to capacity (oldest completed entries evicted — an
// evicted key simply recomputes, and re-debits, on its next replay),
// and waiters wake.
func (c *respCache) complete(e *cacheEntry) {
	e.ok = true
	c.mu.Lock()
	e.elem = c.lru.PushFront(e)
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		ev := c.lru.Remove(oldest).(*cacheEntry)
		delete(c.entries, ev.key)
	}
	c.mu.Unlock()
	close(e.ready)
}

// abort withdraws an owner's failed computation so the error does not
// cache; woken waiters re-acquire and one of them re-attempts.
func (c *respCache) abort(e *cacheEntry) {
	c.mu.Lock()
	delete(c.entries, e.key)
	c.mu.Unlock()
	close(e.ready)
}

// CacheStats reports the dataset cache's lifetime hit/miss counters and
// the current number of completed resident entries.
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

func (c *respCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.lru.Len()}
}
