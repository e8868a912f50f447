package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

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
//
// Session.answer is the one caller: every query kind takes the same
// acquire / compute-or-wait / complete-or-abort round on its full
// identity (query, cacheKeyFor).
//
// A completed marginal or top-k entry also keeps the HTTP response its
// first HTTP hit encoded (encodedResponse, built by respond), so every
// later hit is one Write. The body is a pure function of the key and
// the dataset, so it does not matter which of several concurrent first
// hits publishes it. A miss never builds one, and neither does a
// Session caller outside the handler. Level views keep no encoded body:
// a view body is about twice its cells (≈ 60 KB against 32 KB at level
// 3), and memoising it needs a byte cap on the cache, which the entry
// count is not.

// DefaultMaxCacheEntries is the per-dataset response-cache capacity used
// when Config.MaxCacheEntries is zero. Entries are whole answers; a
// cached level view holds its full cell histogram (4^rounds float64s at
// the deepest level), so deployments serving deep levels to many
// replayed streams should size this against memory deliberately. A
// marginal or top-k entry replayed over HTTP also holds its encoded
// body (≈ 830 B for 64 groups of five-digit counts).
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

	// encoded is set once, by the entry's first HTTP hit (respond). A
	// pointer keeps the entry in its allocation size class, so a miss
	// allocates no more than before.
	encoded atomic.Pointer[encodedResponse]

	elem *list.Element // non-nil once completed and LRU-resident
}

// encodedResponse is a marginal or top-k entry's 200 response: the
// body and its formatted Content-Length. first backs the header values
// of the one response that built it, which saves that response an
// allocation; every later response gets values of its own (respond),
// so no value slice is shared between responses.
type encodedResponse struct {
	body          []byte
	contentLength string
	first         headerValues
}

// headerValues backs a response's Content-Type and Content-Length
// values, one slice each. It is a named type so that the equality
// function the compiler emits for it is linked among serve's symbols;
// an unnamed [2]string's lands among the runtime's and moves every
// noise-kernel symbol after it.
type headerValues [2]string

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
