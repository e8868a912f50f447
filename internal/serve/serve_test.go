package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/accountant"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dp"
	"repro/internal/release"
)

// testConfig is the shared serving setup: budget for exactly 50
// single-debit queries (ε 1.0 / 0.02, δ 1e-4 / 2e-6).
func testConfig() Config {
	return Config{
		Budget:   dp.Params{Epsilon: 1.0, Delta: 1e-4},
		PerQuery: dp.Params{Epsilon: 0.02, Delta: 2e-6},
		Rounds:   5,
		Seed:     71,
	}
}

// testSource returns a fresh edge stream of the shared test dataset.
func testSource(t testing.TB) bipartite.EdgeSource {
	t.Helper()
	cfg := datagen.Config{
		Name: "serve-test", NumLeft: 120, NumRight: 150, NumEdges: 1800,
		LeftZipf: 1.9, RightZipf: 2.6, Seed: 5,
	}
	edges, nl, nr, err := datagen.EdgeList(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return bipartite.NewSliceSource(nl, nr, edges)
}

// openTestDataset opens a registry with one ingested dataset.
func openTestDataset(t testing.TB, cfg Config) (*Registry, *Dataset) {
	t.Helper()
	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	ds, err := reg.AddDataset("tiny", testSource(t))
	if err != nil {
		t.Fatal(err)
	}
	return reg, ds
}

func TestRegistryIngestAndLevelView(t *testing.T) {
	t.Parallel()
	reg, ds := openTestDataset(t, testConfig())

	if got := ds.Stats().NumEdges; got != 1800 {
		t.Fatalf("ingested edges = %d, want 1800", got)
	}
	if ds.MaxLevel() != 5 {
		t.Fatalf("max level = %d, want 5", ds.MaxLevel())
	}
	if names := reg.Names(); len(names) != 1 || names[0] != "tiny" {
		t.Fatalf("names = %v", names)
	}

	sess := ds.SessionAt(3)
	view, err := sess.ReleaseLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	k, err := ds.Tree().NumSideGroups(2)
	if err != nil {
		t.Fatal(err)
	}
	if view.Cells == nil || len(view.Cells.Counts) != k*k {
		t.Fatalf("level view histogram has %d cells, want %d", len(view.Cells.Counts), k*k)
	}
	if view.Count.Level != 2 || view.Count.Sigma <= 0 {
		t.Fatalf("level view count malformed: %+v", view.Count)
	}

	// A level view debits exactly 2×PerQuery, atomically.
	pq := reg.Config().PerQuery
	spent := ds.Spent()
	if math.Abs(spent.Epsilon-2*pq.Epsilon) > 1e-12 || math.Abs(spent.Delta-2*pq.Delta) > 1e-18 {
		t.Fatalf("spent %v after one level view, want 2×%v", spent, pq)
	}
	ops := ds.Ops()
	if len(ops) != 1 || ops[0].Label != "s3/q0/view/level2" {
		t.Fatalf("audit trail = %+v", ops)
	}

	// The histogram buffer is the session's reusable engine buffer: a
	// second query writes into the same backing array.
	first := &view.Cells.Counts[0]
	view2, err := sess.ReleaseLevel(2)
	if err != nil {
		t.Fatal(err)
	}
	if &view2.Cells.Counts[0] != first {
		t.Fatal("second level view reallocated the session's cell buffer")
	}
}

func TestSessionQueriesValidateBeforeSpending(t *testing.T) {
	t.Parallel()
	_, ds := openTestDataset(t, testConfig())
	sess := ds.NewSession()

	if _, err := sess.ReleaseLevel(99); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := sess.Marginal(2, bipartite.Side(9)); err == nil {
		t.Fatal("bad side accepted")
	}
	if _, err := sess.TopK(2, bipartite.Left, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := sess.TopK(2, bipartite.Left, 1<<20); err == nil {
		t.Fatal("oversized k accepted")
	}
	if spent := ds.Spent(); spent.Epsilon != 0 || spent.Delta != 0 {
		t.Fatalf("invalid queries spent budget: %v", spent)
	}
	if sess.Seq() != 0 {
		t.Fatalf("invalid queries advanced the stream: seq=%d", sess.Seq())
	}
}

func TestRegistryDatasetLifecycle(t *testing.T) {
	t.Parallel()
	reg, _ := openTestDataset(t, testConfig())

	if _, err := reg.AddDataset("tiny", testSource(t)); !errors.Is(err, ErrDatasetExists) {
		t.Fatalf("duplicate ingest: %v", err)
	}
	if _, err := reg.Dataset("nope"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("unknown dataset: %v", err)
	}
	if err := reg.RemoveDataset("tiny"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Dataset("tiny"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("removed dataset still served: %v", err)
	}
	reg.Close()
	if _, err := reg.AddDataset("post-close", testSource(t)); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after close: %v", err)
	}
}

func TestPhase1EpsilonDebitsIngest(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.Phase1Epsilon = 0.01
	_, ds := openTestDataset(t, cfg)
	want := 2 * float64(cfg.Rounds) * cfg.Phase1Epsilon
	if spent := ds.Spent(); math.Abs(spent.Epsilon-want) > 1e-12 {
		t.Fatalf("phase-1 ingest spent ε=%v, want %v", spent.Epsilon, want)
	}
	ops := ds.Ops()
	if len(ops) != 1 || ops[0].Label != "ingest/phase1" {
		t.Fatalf("audit trail = %+v", ops)
	}

	// A budget too small for the specialization must refuse the ingest.
	tight := testConfig()
	tight.Phase1Epsilon = 1.0 // 2·5·1.0 = 10 > ε budget 1.0
	reg2, err := Open(tight)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	// The refusal comes before the build reads the source.
	for _, strategy := range release.Strategies.Names() {
		src := &countingSource{EdgeSource: testSource(t)}
		if _, err := reg2.AddDatasetWith("x", src, DatasetOptions{Strategy: strategy}); !errors.Is(err, accountant.ErrBudgetExceeded) {
			t.Fatalf("%s: over-budget phase 1: %v", strategy, err)
		}
		if src.reads != 0 {
			t.Fatalf("%s: over-budget ingest read the source %d times before refusing", strategy, src.reads)
		}
		if _, err := reg2.Dataset("x"); !errors.Is(err, ErrUnknownDataset) {
			t.Fatalf("%s: failed ingest left the name registered", strategy)
		}
	}
}

// countingSource counts the calls that read or rewind the source.
type countingSource struct {
	bipartite.EdgeSource
	reads int
}

func (c *countingSource) NextChunk(dst []bipartite.Edge) (int, error) {
	c.reads++
	return c.EdgeSource.NextChunk(dst)
}

func (c *countingSource) Reset() error {
	c.reads++
	return c.EdgeSource.Reset()
}

// TestConcurrentSessionsDrainLedgerExactly is the serving layer's race
// and accounting contract: N goroutine sessions hammer one dataset until
// the ledger refuses; exactly capacity queries are admitted (no
// overspend, no stranded budget), and every session's answers match a
// serial replay of the same per-session sequences — interleaving can
// change who gets budget, never what anyone's draws are.
func TestConcurrentSessionsDrainLedgerExactly(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	const sessions = 8
	const capacity = 50 // Budget / PerQuery on both components

	_, ds := openTestDataset(t, cfg)
	var admitted atomic.Int64
	results := make([][][]float64, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := ds.SessionAt(uint64(i))
			for {
				m, err := sess.Marginal(2, bipartite.Left)
				if err != nil {
					if !errors.Is(err, accountant.ErrBudgetExceeded) {
						t.Errorf("session %d: unexpected error: %v", i, err)
					}
					return
				}
				admitted.Add(1)
				// Marginal returns a view of the session's scratch, valid
				// until the next query — clone to retain.
				results[i] = append(results[i], append([]float64(nil), m...))
			}
		}(i)
	}
	wg.Wait()

	if got := admitted.Load(); got != capacity {
		t.Fatalf("admitted %d queries, want exactly %d", got, capacity)
	}
	spent, budget := ds.Spent(), ds.Budget()
	if spent.Epsilon > budget.Epsilon*(1+1e-9) || spent.Delta > budget.Delta*(1+1e-9) {
		t.Fatalf("overspend: %v > %v", spent, budget)
	}
	rem := ds.Remaining()
	if rem.Epsilon > budget.Epsilon*1e-9 || rem.Delta > budget.Delta*1e-9 {
		t.Fatalf("ledger not drained to zero: remaining %v", rem)
	}
	// Exhausted means exhausted for every query shape.
	if _, err := ds.NewSession().ReleaseLevel(1); !errors.Is(err, accountant.ErrBudgetExceeded) {
		t.Fatalf("post-drain level view: %v", err)
	}

	// Serial replay on a fresh registry: each session re-runs its own
	// admitted count in order; every answer must be bitwise identical to
	// what it got under contention.
	_, replayDS := openTestDataset(t, cfg)
	for i := 0; i < sessions; i++ {
		sess := replayDS.SessionAt(uint64(i))
		for qi, want := range results[i] {
			got, err := sess.Marginal(2, bipartite.Left)
			if err != nil {
				t.Fatalf("replay session %d query %d: %v", i, qi, err)
			}
			for gi := range want {
				if math.Float64bits(got[gi]) != math.Float64bits(want[gi]) {
					t.Fatalf("session %d query %d group %d: concurrent %v, replay %v",
						i, qi, gi, want[gi], got[gi])
				}
			}
		}
	}
}

// TestDistinctQueriesShareNoDraws is the differencing-attack
// regression: two sessions pinned to ONE stream id issue different
// queries at the same sequence number. If the per-query streams were
// keyed only by (stream, seq), both marginals below would be sums over
// the SAME noisy cell matrix — their totals would agree to float
// reordering error and a client could difference the responses to
// cancel the noise. With the query identity folded into the
// derivation, the draws are independent and the totals disagree by
// O(noise).
func TestDistinctQueriesShareNoDraws(t *testing.T) {
	t.Parallel()
	_, ds := openTestDataset(t, testConfig())

	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}

	left, err := ds.SessionAt(7).Marginal(2, bipartite.Left)
	if err != nil {
		t.Fatal(err)
	}
	right, err := ds.SessionAt(7).Marginal(2, bipartite.Right)
	if err != nil {
		t.Fatal(err)
	}
	// Row sums and column sums of one matrix have identical totals; with
	// independent per-query noise the two totals differ by the noise
	// scale, orders of magnitude above any float-reordering error.
	if diff := math.Abs(sum(left) - sum(right)); diff < 1e-6 {
		t.Fatalf("left/right marginal totals differ by %v — same-stream queries shared noise draws", diff)
	}

	// A marginal and a top-k on the same (stream, seq, level, side) must
	// not share cell draws either: under shared draws the top-k's full
	// ranking would be exactly the stable argsort of the other query's
	// marginal (TopKGroups ranks by the same side's marginal).
	m9, err := ds.SessionAt(9).Marginal(2, bipartite.Left)
	if err != nil {
		t.Fatal(err)
	}
	ranking, err := ds.SessionAt(9).TopK(2, bipartite.Left, len(m9))
	if err != nil {
		t.Fatal(err)
	}
	argsort := make([]int, len(m9))
	for i := range argsort {
		argsort[i] = i
	}
	sort.SliceStable(argsort, func(a, b int) bool { return m9[argsort[a]] > m9[argsort[b]] })
	same := true
	for i := range ranking {
		if ranking[i] != argsort[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("same-stream top-k ranking %v equals the marginal's argsort — shared cell draws", ranking)
	}

	// The replay contract is untouched: the SAME query at the same
	// (stream, seq) still replays bit-identically.
	replay, err := ds.SessionAt(7).Marginal(2, bipartite.Left)
	if err != nil {
		t.Fatal(err)
	}
	for i := range left {
		if math.Float64bits(replay[i]) != math.Float64bits(left[i]) {
			t.Fatalf("identical query on a shared stream did not replay: group %d %v vs %v", i, replay[i], left[i])
		}
	}
}

// TestQueryDerivationsDistinct sweeps a query-shape space and demands
// that every (seq, kind, level, side, k) tuple derives a distinct
// stream — the property the independence of same-stream queries rests
// on. Each tuple gets a fresh session at one pinned id, so the first
// draw is a pure function of the tuple.
func TestQueryDerivationsDistinct(t *testing.T) {
	t.Parallel()
	_, ds := openTestDataset(t, testConfig())
	seen := make(map[uint64]string)
	for _, kind := range []int{queryKindView, queryKindMarginal, queryKindTopK} {
		for level := 0; level <= 9; level++ {
			for _, side := range []bipartite.Side{bipartite.Left, bipartite.Right} {
				for k := 0; k <= 8; k++ {
					key := fmt.Sprintf("kind=%d level=%d side=%d k=%d", kind, level, side, k)
					first := ds.SessionAt(11).querySource(kind, level, side, k).Uint64()
					if prev, ok := seen[first]; ok {
						t.Fatalf("query stream collision: %s and %s draw the same first variate", prev, key)
					}
					seen[first] = key
				}
			}
		}
	}
	// Sequence numbers separate streams too.
	s := ds.SessionAt(11)
	s.seq = 1
	if _, ok := seen[s.querySource(queryKindView, 0, 0, 0).Uint64()]; ok {
		t.Fatal("seq=1 derivation collided with a seq=0 stream")
	}
}

// TestAutoSessionsDisjointFromPinned: auto and pinned sessions derive
// from disjoint stream domains, so a client pinning ANY id can never
// land on an auto session's noise stream — while auto ids stay small
// enough to round-trip exactly through JSON doubles.
func TestAutoSessionsDisjointFromPinned(t *testing.T) {
	t.Parallel()
	_, ds := openTestDataset(t, testConfig())
	auto := ds.NewSession()
	if auto.Pinned() {
		t.Fatal("auto session reports pinned")
	}
	if auto.Stream() != 0 {
		t.Fatalf("first auto stream id = %d, want 0", auto.Stream())
	}
	if b := ds.NewSession(); b.Stream() != 1 {
		t.Fatalf("second auto stream id = %d, want 1", b.Stream())
	}
	pinned := ds.SessionAt(auto.Stream())
	if !pinned.Pinned() || pinned.Stream() != auto.Stream() {
		t.Fatalf("pinned session = (stream %d, pinned %v)", pinned.Stream(), pinned.Pinned())
	}

	// Same numeric id, same query — different domains, different noise.
	ma, err := auto.Marginal(2, bipartite.Left)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := pinned.Marginal(2, bipartite.Left)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range ma {
		if math.Float64bits(ma[i]) != math.Float64bits(mp[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("auto and pinned sessions with one numeric id shared a noise stream")
	}

	// The audit trail tells the two id spaces apart.
	ops := ds.Ops()
	if len(ops) != 2 || ops[0].Label != "a0/q0/marginal/level2" || ops[1].Label != "s0/q0/marginal/level2" {
		t.Fatalf("audit labels = %+v", ops)
	}
}

// TestReingestRekeysSessionStreams: session streams fold in a
// fingerprint of the served data, so removing a dataset and re-adding
// DIFFERENT data under the same name derives fresh noise — a client
// cannot difference pre/post responses at one (stream, seq, query) to
// cancel the noise — while re-ingesting IDENTICAL data preserves the
// replay contract bit for bit.
func TestReingestRekeysSessionStreams(t *testing.T) {
	t.Parallel()
	reg, ds1 := openTestDataset(t, testConfig())
	m1, err := ds1.SessionAt(3).Marginal(2, bipartite.Left)
	if err != nil {
		t.Fatal(err)
	}

	// Different data, same name.
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
	if ds2.print == ds1.print {
		t.Fatal("different data under one name share a fingerprint")
	}

	// Identical data, same name: fingerprint and replay are restored.
	if err := reg.RemoveDataset("tiny"); err != nil {
		t.Fatal(err)
	}
	ds3, err := reg.AddDataset("tiny", testSource(t))
	if err != nil {
		t.Fatal(err)
	}
	if ds3.print != ds1.print {
		t.Fatal("identical re-ingest changed the fingerprint")
	}
	m3, err := ds3.SessionAt(3).Marginal(2, bipartite.Left)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1 {
		if math.Float64bits(m3[i]) != math.Float64bits(m1[i]) {
			t.Fatalf("identical re-ingest broke replay: group %d %v vs %v", i, m3[i], m1[i])
		}
	}
}

// TestSessionReplayByteIdentical pins the full replay contract across
// registries: same seed, same dataset, same pinned stream, same query
// sequence — the serialized answers are byte-identical, and distinct
// streams draw distinct noise.
func TestSessionReplayByteIdentical(t *testing.T) {
	t.Parallel()
	transcript := func(stream uint64) []byte {
		_, ds := openTestDataset(t, testConfig())
		sess := ds.SessionAt(stream)
		var blob []byte
		view, err := sess.ReleaseLevel(2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(view)
		if err != nil {
			t.Fatal(err)
		}
		blob = append(blob, b...)
		m, err := sess.Marginal(1, bipartite.Right)
		if err != nil {
			t.Fatal(err)
		}
		b, err = json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		blob = append(blob, b...)
		topk, err := sess.TopK(2, bipartite.Left, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err = json.Marshal(topk)
		if err != nil {
			t.Fatal(err)
		}
		return append(blob, b...)
	}

	a, b := transcript(7), transcript(7)
	if string(a) != string(b) {
		t.Fatal("pinned stream did not replay byte-identical answers")
	}
	if string(a) == string(transcript(8)) {
		t.Fatal("distinct streams produced identical transcripts")
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	if _, err := Open(Config{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero config: %v", err)
	}
	bad := testConfig()
	bad.Rounds = 99
	if _, err := Open(bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad rounds: %v", err)
	}
	bad = testConfig()
	bad.Phase1Epsilon = -1
	if _, err := Open(bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative phase-1 eps: %v", err)
	}
	bad = testConfig()
	bad.Model = core.GroupModel(42)
	if _, err := Open(bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad model: %v", err)
	}

	// A per-query budget the Gaussian cell calibration can never answer
	// (δ=0) must fail Open — otherwise every query would debit the
	// ledger and THEN hit the engine error, draining budget for nothing.
	bad = testConfig()
	bad.PerQuery.Delta = 0
	if _, err := Open(bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero per-query delta: %v", err)
	}
	// The mechanism is the strategy's: naming another one does not
	// lift the requirement, it fails Open on its own.
	bad.Mechanism = core.MechLaplace
	if _, err := Open(bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero per-query delta under laplace: %v", err)
	}
	bad = testConfig()
	bad.Mechanism = core.MechLaplace
	if _, err := Open(bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("laplace mechanism under the gaussian strategy: %v", err)
	}
	for _, strategy := range release.Strategies.Names() {
		want, err := release.Strategies.Resolve(strategy)
		if err != nil {
			t.Fatal(err)
		}
		for _, mech := range []core.NoiseMechanism{0, want.Mech} {
			cfg := testConfig()
			cfg.Strategy, cfg.Mechanism = strategy, mech
			reg, err := Open(cfg)
			if err != nil {
				t.Fatalf("%s with mechanism %d: %v", strategy, mech, err)
			}
			if got := reg.Config().Mechanism; got != want.Mech {
				t.Errorf("%s: Config().Mechanism = %v, want %v", strategy, got, want.Mech)
			}
			reg.Close()
		}
	}

	// PerQuery defaulting: Budget/64 on both components.
	cfg := testConfig()
	cfg.PerQuery = dp.Params{}
	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	pq := reg.Config().PerQuery
	if pq.Epsilon != cfg.Budget.Epsilon/64 || pq.Delta != cfg.Budget.Delta/64 {
		t.Fatalf("defaulted per-query budget = %v", pq)
	}

	// Registry rejects empty names and nil sources.
	if _, err := reg.AddDataset("", testSource(t)); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := reg.AddDataset("ds", nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

// TestConcurrentIngestLanes fans several ingests across two retained
// Builder lanes; every dataset must be independently correct.
func TestConcurrentIngestLanes(t *testing.T) {
	t.Parallel()
	cfg := testConfig()
	cfg.IngestLanes = 2
	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = reg.AddDataset(fmt.Sprintf("ds%d", i), testSource(t))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	if got := len(reg.Names()); got != n {
		t.Fatalf("registry serves %d datasets, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		ds, err := reg.Dataset(fmt.Sprintf("ds%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if ds.Stats().NumEdges != 1800 {
			t.Fatalf("dataset %d has %d edges", i, ds.Stats().NumEdges)
		}
	}
}

// benchDataset opens a registry whose budget never exhausts under b.N.
// The response cache is disabled: these benchmarks (and the zero-alloc
// test) measure the steady-state compute path, where every query is a
// distinct (seq, identity) key the cache could only add insert work to;
// cache behavior has its own benchmarks.
func benchDataset(b testing.TB) *Dataset {
	b.Helper()
	cfg := Config{
		Budget:          dp.Params{Epsilon: 1e12, Delta: 0.5},
		PerQuery:        dp.Params{Epsilon: 1e-3, Delta: 1e-12},
		Rounds:          6,
		Seed:            71,
		MaxCacheEntries: -1,
	}
	_, ds := openTestDataset(b, cfg)
	return ds
}

// BenchmarkServeSessionMarginal is the serving hot path: ledger debit +
// one batched histogram release into the session's reusable buffer +
// marginal post-processing.
func BenchmarkServeSessionMarginal(b *testing.B) {
	ds := benchDataset(b)
	sess := ds.SessionAt(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Marginal(2, bipartite.Left); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSessionLevelView serves the full level view (count +
// histogram) per iteration.
func BenchmarkServeSessionLevelView(b *testing.B) {
	ds := benchDataset(b)
	sess := ds.SessionAt(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.ReleaseLevel(3); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSteadyStateQueriesAllocationFree pins the zero-alloc query tail:
// after warm-up, Marginal and TopK perform no per-query heap
// allocations — the stream chain collapses through session scratch, the
// ledger label is assembled in a reusable buffer and copied into the
// ledger's arena, and the result vectors reuse session buffers. The
// only allocations left are the audit trail's amortized slice growth,
// which AllocsPerRun sees as a fractional average.
func TestSteadyStateQueriesAllocationFree(t *testing.T) {
	ds := benchDataset(t)
	sess := ds.SessionAt(1)
	if _, err := sess.Marginal(2, bipartite.Left); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.TopK(2, bipartite.Left, 3); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := sess.Marginal(2, bipartite.Left); err != nil {
			t.Fatal(err)
		}
	}); avg > 0.25 {
		t.Errorf("steady-state Marginal allocates %.2f objects/op, want ~0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := sess.TopK(2, bipartite.Left, 3); err != nil {
			t.Fatal(err)
		}
	}); avg > 0.25 {
		t.Errorf("steady-state TopK allocates %.2f objects/op, want ~0", avg)
	}
}

// BenchmarkServeSessionMarginalCacheHit measures the replay path: the
// query key is resident in the dataset's response cache, so serving it
// skips the ledger debit and the Phase-2 draw entirely — the acceptance
// bar is ≥10× cheaper than the compute path above.
func BenchmarkServeSessionMarginalCacheHit(b *testing.B) {
	cfg := Config{
		Budget:   dp.Params{Epsilon: 1e12, Delta: 0.5},
		PerQuery: dp.Params{Epsilon: 1e-3, Delta: 1e-12},
		Rounds:   6,
		Seed:     71,
	}
	_, ds := openTestDataset(b, cfg)
	if _, err := ds.SessionAt(1).Marginal(2, bipartite.Left); err != nil {
		b.Fatal(err)
	}
	sess := ds.SessionAt(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// White-box replay: the cache key is (domain, stream, seq,
		// identity), so rewinding seq replays the resident key without
		// paying session construction per iteration — the pure hit path.
		sess.seq = 0
		if _, err := sess.Marginal(2, bipartite.Left); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFingerprintTreePinned pins fingerprintTree on the shared test
// dataset. The fingerprint names WAL files and sequencer keys and keys
// every session stream: if it moved, a re-ingest of unchanged data would
// silently open a fresh budget.
func TestFingerprintTreePinned(t *testing.T) {
	t.Parallel()
	_, ds := openTestDataset(t, testConfig())
	const want = uint64(0xe4dd5702ea06de7c)
	if got := fingerprintTree(ds.Tree()); got != want {
		t.Fatalf("fingerprintTree = %#016x, pinned %#016x", got, want)
	}
	if ds.print != want {
		t.Fatalf("default-strategy dataset print = %#016x, want the bare fingerprint %#016x", ds.print, want)
	}
}

// TestDatasetStatsComputedOnce: the dataset summary is computed at build
// and stored on the tree, so Dataset.Stats — called per dataset by every
// GET /v1/datasets — returns it without touching the degree vectors: no
// allocation, where the sort-based summary copied and sorted both sides
// on every call.
func TestDatasetStatsComputedOnce(t *testing.T) {
	_, ds := openTestDataset(t, testConfig())
	want := ds.Stats()
	if want.NumEdges == 0 {
		t.Fatal("test dataset has no edges")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if ds.Stats() != want {
			t.Error("Dataset.Stats changed between calls")
		}
	}); allocs != 0 {
		t.Errorf("Dataset.Stats allocates %v times per call, want 0", allocs)
	}
}
