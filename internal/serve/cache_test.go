package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/accountant"
	"repro/internal/bipartite"
	"repro/internal/datagen"
	"repro/internal/dp"
)

// marginalBits snapshots a marginal as raw float bits (the slice aliases
// session scratch, and bit equality is the contract under test).
func marginalBits(t *testing.T, m []float64) []uint64 {
	t.Helper()
	out := make([]uint64, len(m))
	for i, v := range m {
		out[i] = math.Float64bits(v)
	}
	return out
}

// TestCacheHitSkipsLedgerAndPreservesStream: a replayed (stream, seq,
// query) returns the byte-identical answer without a second ledger
// debit, the hit still consumes the seq slot and advances the session
// stream — so a query AFTER the hit draws exactly what it would have
// drawn had the session computed everything itself.
func TestCacheHitSkipsLedgerAndPreservesStream(t *testing.T) {
	t.Parallel()
	_, ds := openTestDataset(t, testConfig())

	sess1 := ds.SessionAt(3)
	m0, err := sess1.Marginal(2, bipartite.Left)
	if err != nil {
		t.Fatal(err)
	}
	want0 := marginalBits(t, m0)
	m1, err := sess1.Marginal(2, bipartite.Right)
	if err != nil {
		t.Fatal(err)
	}
	want1 := marginalBits(t, m1)
	opsAfterCompute := len(ds.Ops())

	// Replay the same stream: seq 0 hits, seq 1 hits.
	sess2 := ds.SessionAt(3)
	h0, err := sess2.Marginal(2, bipartite.Left)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range marginalBits(t, h0) {
		if b != want0[i] {
			t.Fatalf("hit at seq 0 diverged at group %d", i)
		}
	}
	if sess2.Seq() != 1 {
		t.Fatalf("cache hit did not consume the seq slot: seq=%d", sess2.Seq())
	}
	h1, err := sess2.Marginal(2, bipartite.Right)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range marginalBits(t, h1) {
		if b != want1[i] {
			t.Fatalf("hit at seq 1 diverged at group %d (stream misaligned after a hit)", i)
		}
	}
	if got := len(ds.Ops()); got != opsAfterCompute {
		t.Fatalf("replays debited the ledger: %d ops, want %d", got, opsAfterCompute)
	}
	st := ds.CacheStats()
	if st.Hits != 2 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("cache stats = %+v, want 2 hits / 2 misses / 2 entries", st)
	}

	// A session that hits at seq 0 and then issues a NEW query at seq 1
	// must draw what an all-computing session would have drawn: compare
	// against a cache-disabled registry.
	ref := testConfig()
	ref.MaxCacheEntries = -1
	_, refDS := openTestDataset(t, ref)
	refSess := refDS.SessionAt(3)
	if _, err := refSess.Marginal(2, bipartite.Left); err != nil {
		t.Fatal(err)
	}
	refTop, err := refSess.TopK(1, bipartite.Right, 2)
	if err != nil {
		t.Fatal(err)
	}
	sess3 := ds.SessionAt(3)
	if _, err := sess3.Marginal(2, bipartite.Left); err != nil { // hit
		t.Fatal(err)
	}
	top, err := sess3.TopK(1, bipartite.Right, 2) // miss, fresh draw
	if err != nil {
		t.Fatal(err)
	}
	for i := range refTop {
		if top[i] != refTop[i] {
			t.Fatalf("post-hit query diverged from the no-cache reference: %v vs %v", top, refTop)
		}
	}
}

// TestCacheKeyCarriesK: two sessions pinned to one stream ask TopK at
// the same (seq, level, side), the first with k = 2 and the second with
// k = 3. The second is another query, so it must miss and answer with
// three groups — the answer a session without a cache gives.
func TestCacheKeyCarriesK(t *testing.T) {
	t.Parallel()
	_, ds := openTestDataset(t, testConfig())
	if _, err := ds.SessionAt(5).TopK(2, bipartite.Left, 2); err != nil {
		t.Fatal(err)
	}
	got, err := ds.SessionAt(5).TopK(2, bipartite.Left, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref := testConfig()
	ref.MaxCacheEntries = -1
	_, refDS := openTestDataset(t, ref)
	want, err := refDS.SessionAt(5).TopK(2, bipartite.Left, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("top-3 after a cached top-2 at the same seq = %v, want the uncached %v", got, want)
	}
}

// TestCacheLevelViewHitReusesEngineBuffer: level-view hits rehydrate the
// cached histogram through the session's engine buffer (same backing
// array across queries), serialize byte-identically to the computed
// answer, and mutating a returned view cannot poison the cache.
func TestCacheLevelViewHitReusesEngineBuffer(t *testing.T) {
	t.Parallel()
	_, ds := openTestDataset(t, testConfig())

	computed, err := ds.SessionAt(9).ReleaseLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(computed)
	if err != nil {
		t.Fatal(err)
	}

	sess := ds.SessionAt(9)
	hit, err := sess.ReleaseLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(hit)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatal("cache-hit level view is not byte-identical to the computed view")
	}
	if len(ds.Ops()) != 1 {
		t.Fatalf("level-view replay debited the ledger: %d ops", len(ds.Ops()))
	}

	// Corrupt the returned (session-buffer) view, then hit again from a
	// fresh session: the cached copy must be unaffected.
	hit.Cells.Counts[0] = -1e9
	again, err := ds.SessionAt(9).ReleaseLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	againJSON, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if string(againJSON) != string(wantJSON) {
		t.Fatal("mutating a returned view poisoned the cache")
	}
}

// TestCacheConcurrentReplaySingleDebit is the cache's -race contract: N
// concurrent sessions replaying one (stream, seq, query) key get
// byte-identical answers backed by exactly ONE ledger debit — the first
// session to arrive owns the computation, everyone else waits and reads.
func TestCacheConcurrentReplaySingleDebit(t *testing.T) {
	t.Parallel()
	_, ds := openTestDataset(t, testConfig())
	const replayers = 16

	results := make([][]uint64, replayers)
	errs := make([]error, replayers)
	var wg sync.WaitGroup
	for i := 0; i < replayers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := ds.SessionAt(5) // same pinned stream for everyone
			m, err := sess.Marginal(2, bipartite.Left)
			if err != nil {
				errs[i] = err
				return
			}
			bits := make([]uint64, len(m))
			for gi, v := range m {
				bits[gi] = math.Float64bits(v)
			}
			results[i] = bits
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("replayer %d: %v", i, err)
		}
	}
	for i := 1; i < replayers; i++ {
		for gi := range results[0] {
			if results[i][gi] != results[0][gi] {
				t.Fatalf("replayer %d diverged at group %d", i, gi)
			}
		}
	}
	if ops := ds.Ops(); len(ops) != 1 {
		t.Fatalf("%d concurrent replays produced %d ledger debits, want exactly 1", replayers, len(ops))
	}
	if st := ds.CacheStats(); st.Misses != 1 || st.Hits != replayers-1 {
		t.Fatalf("cache stats = %+v, want 1 miss / %d hits", st, replayers-1)
	}
}

// TestCacheReingestInvalidates: a re-ingest under the same name serves
// from a fresh cache — different data yields a different answer (and a
// fresh debit) at the same key, while identical data restores the exact
// bytes (the replay contract, now through a rebuilt cache).
func TestCacheReingestInvalidates(t *testing.T) {
	t.Parallel()
	reg, ds1 := openTestDataset(t, testConfig())
	m1, err := ds1.SessionAt(4).Marginal(2, bipartite.Left)
	if err != nil {
		t.Fatal(err)
	}
	want := marginalBits(t, m1)

	// Same name, different data.
	if err := reg.RemoveDataset("tiny"); err != nil {
		t.Fatal(err)
	}
	other := datagen.Config{
		Name: "serve-test-b", NumLeft: 120, NumRight: 150, NumEdges: 1800,
		LeftZipf: 1.9, RightZipf: 2.6, Seed: 6,
	}
	edges, nl, nr, err := datagen.EdgeList(other)
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := reg.AddDataset("tiny", bipartite.NewSliceSource(nl, nr, edges))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ds2.SessionAt(4).Marginal(2, bipartite.Left)
	if err != nil {
		t.Fatal(err)
	}
	if st := ds2.CacheStats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("re-ingest served from a stale cache: stats %+v", st)
	}
	if len(ds2.Ops()) != 1 {
		t.Fatalf("re-ingested dataset's first query did not debit its ledger: %d ops", len(ds2.Ops()))
	}
	same := true
	for i, b := range marginalBits(t, m2) {
		if b != want[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different data under one name replayed the cached answer")
	}

	// Same name, identical data: fresh cache, byte-identical recompute.
	if err := reg.RemoveDataset("tiny"); err != nil {
		t.Fatal(err)
	}
	ds3, err := reg.AddDataset("tiny", testSource(t))
	if err != nil {
		t.Fatal(err)
	}
	m3, err := ds3.SessionAt(4).Marginal(2, bipartite.Left)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range marginalBits(t, m3) {
		if b != want[i] {
			t.Fatalf("identical re-ingest broke replay at group %d", i)
		}
	}
	if st := ds3.CacheStats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("identical re-ingest hit a stale cache: stats %+v", st)
	}
}

// TestCacheLRUBoundsAndEviction: the cache holds at most MaxCacheEntries
// completed answers; an evicted key recomputes (and re-debits) on its
// next replay, a resident key replays free.
func TestCacheLRUBoundsAndEviction(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.MaxCacheEntries = 2
	_, ds := openTestDataset(t, cfg)

	sess := ds.SessionAt(0)
	for _, level := range []int{0, 1, 2} { // three keys through a 2-entry cache
		if _, err := sess.Marginal(level, bipartite.Left); err != nil {
			t.Fatal(err)
		}
	}
	if st := ds.CacheStats(); st.Entries != 2 {
		t.Fatalf("cache holds %d entries, want 2 (bounded LRU)", st.Entries)
	}
	ops := len(ds.Ops())

	// seq 0 / level 0 was evicted (oldest): replaying it recomputes.
	replay := ds.SessionAt(0)
	if _, err := replay.Marginal(0, bipartite.Left); err != nil {
		t.Fatal(err)
	}
	if got := len(ds.Ops()); got != ops+1 {
		t.Fatalf("evicted key replayed without a debit: %d ops, want %d", got, ops+1)
	}
	// seq 2 / level 2 is resident: replaying it is free.
	replay2 := ds.SessionAt(0)
	replay2.seq = 2
	if _, err := replay2.Marginal(2, bipartite.Left); err != nil {
		t.Fatal(err)
	}
	if got := len(ds.Ops()); got != ops+1 {
		t.Fatalf("resident key debited the ledger on replay: %d ops", got)
	}
}

// TestCacheServesReplaysAfterExhaustion: once an answer is cached its DP
// cost is paid, so replays keep working even after the ledger refuses
// new queries — and a MISS under an exhausted ledger still fails closed
// without caching the error.
func TestCacheServesReplaysAfterExhaustion(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Budget:   dp.Params{Epsilon: 0.02, Delta: 2e-6}, // exactly one marginal
		PerQuery: dp.Params{Epsilon: 0.02, Delta: 2e-6},
		Rounds:   5,
		Seed:     71,
	}
	_, ds := openTestDataset(t, cfg)

	m, err := ds.SessionAt(1).Marginal(2, bipartite.Left)
	if err != nil {
		t.Fatal(err)
	}
	want := marginalBits(t, m)

	// The budget is gone: a new key fails closed, twice (no error caching).
	for i := 0; i < 2; i++ {
		if _, err := ds.SessionAt(2).Marginal(2, bipartite.Left); !errors.Is(err, accountant.ErrBudgetExceeded) {
			t.Fatalf("attempt %d: new query on exhausted ledger: %v", i, err)
		}
	}
	// The cached key still replays byte-identically, for free.
	h, err := ds.SessionAt(1).Marginal(2, bipartite.Left)
	if err != nil {
		t.Fatalf("cached replay after exhaustion: %v", err)
	}
	for i, b := range marginalBits(t, h) {
		if b != want[i] {
			t.Fatalf("post-exhaustion replay diverged at group %d", i)
		}
	}
}
