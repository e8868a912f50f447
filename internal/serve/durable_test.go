package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/accountant"
	"repro/internal/bipartite"
	"repro/internal/datagen"
	"repro/internal/dp"
)

// durableConfig is testConfig with a durable ledger dir and a budget for
// exactly 4 marginal queries.
func durableConfig(t testing.TB) Config {
	cfg := testConfig()
	cfg.Budget = dp.Params{Epsilon: 0.1, Delta: 1e-5}
	cfg.PerQuery = dp.Params{Epsilon: 0.025, Delta: 1e-6}
	cfg.LedgerDir = t.TempDir()
	return cfg
}

// TestDurableRestartKeepsBudgetSpent is the core restart-semantics test:
// drain a dataset to ErrBudgetExceeded, close the registry, reopen from
// the same ledger dir, and assert the budget is still exhausted with a
// bit-identical audit trail.
func TestDurableRestartKeepsBudgetSpent(t *testing.T) {
	t.Parallel()
	cfg := durableConfig(t)

	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := reg.AddDataset("tiny", testSource(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.Durability(); !ok {
		t.Fatal("dataset under LedgerDir reports no durable ledger")
	}
	sess := ds.SessionAt(1)
	for i := 0; i < 4; i++ {
		if _, err := sess.Marginal(1, bipartite.Left); err != nil {
			t.Fatalf("marginal %d: %v", i, err)
		}
	}
	if _, err := sess.Marginal(1, bipartite.Left); !errors.Is(err, accountant.ErrBudgetExceeded) {
		t.Fatalf("drain: got %v, want ErrBudgetExceeded", err)
	}
	spent, ops := ds.Spent(), ds.Ops()
	if err := reg.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Durable datasets fail closed after the registry closes their WAL.
	if _, err := sess.Marginal(2, bipartite.Left); !errors.Is(err, accountant.ErrLedgerClosed) {
		t.Fatalf("query after Close: got %v, want ErrLedgerClosed", err)
	}

	// "Restart": a fresh registry over the same ledger dir re-ingests the
	// same data and must land on the same WAL file, replaying the spend.
	reg2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg2.Close() })
	ds2, err := reg2.AddDataset("tiny", testSource(t))
	if err != nil {
		t.Fatalf("re-ingest after restart: %v", err)
	}
	if got := ds2.Spent(); got != spent {
		t.Fatalf("restarted Spent = %s, want %s", got, spent)
	}
	if got := ds2.Ops(); !reflect.DeepEqual(got, ops) {
		t.Fatalf("restarted audit trail diverges:\n got %+v\nwant %+v", got, ops)
	}
	st, ok := ds2.Durability()
	if !ok || st.ReplayedOps != len(ops) {
		t.Fatalf("Durability = %+v, ok=%v; want %d replayed ops", st, ok, len(ops))
	}
	if _, err := ds2.SessionAt(1).Marginal(1, bipartite.Left); !errors.Is(err, accountant.ErrBudgetExceeded) {
		t.Fatalf("exhausted budget re-armed across restart: %v", err)
	}
}

// TestDurablePhase1NotDoubleCharged: re-ingesting the same data must not
// debit the phase-1 specialization cost a second time.
func TestDurablePhase1NotDoubleCharged(t *testing.T) {
	t.Parallel()
	cfg := durableConfig(t)
	cfg.Budget = dp.Params{Epsilon: 1.0, Delta: 1e-5}
	cfg.Phase1Epsilon = 0.01 // 2·5·0.01 = 0.1 at ingest

	open := func() dp.Params {
		reg, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		ds, err := reg.AddDataset("tiny", testSource(t))
		if err != nil {
			t.Fatal(err)
		}
		return ds.Spent()
	}
	first := open()
	if first.Epsilon <= 0 {
		t.Fatal("phase-1 ingest debited nothing")
	}
	if second := open(); second != first {
		t.Fatalf("re-ingest changed spent: %s → %s (phase-1 double-charged)", first, second)
	}
}

// TestDurableTornTailAtServeLayer truncates the WAL mid-record between
// restarts; reopen must succeed with the valid prefix.
func TestDurableTornTailAtServeLayer(t *testing.T) {
	t.Parallel()
	cfg := durableConfig(t)

	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := reg.AddDataset("tiny", testSource(t))
	if err != nil {
		t.Fatal(err)
	}
	sess := ds.SessionAt(1)
	for i := 0; i < 4; i++ {
		if _, err := sess.Marginal(1, bipartite.Left); err != nil {
			t.Fatalf("marginal %d: %v", i, err)
		}
	}
	reg.Close()

	wals, err := filepath.Glob(filepath.Join(cfg.LedgerDir, "*.wal"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("want exactly one WAL, got %v (err %v)", wals, err)
	}
	fi, err := os.Stat(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wals[0], fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	reg2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg2.Close() })
	ds2, err := reg2.AddDataset("tiny", testSource(t))
	if err != nil {
		t.Fatalf("re-ingest over torn WAL: %v", err)
	}
	// The tear ate the 4th marginal's record; the prefix (3 ops) is the ledger.
	if got := ds2.OpCount(); got != 3 {
		t.Fatalf("OpCount after torn-tail replay = %d, want 3", got)
	}
}

// TestDurableFailClosedServing injects a WAL write failure under live
// serving: the query must fail without advancing the session sequence,
// and the dataset must refuse all further spends.
func TestDurableFailClosedServing(t *testing.T) {
	t.Parallel()
	cfg := durableConfig(t)
	var arm failNextWrite
	cfg.ledgerOpenWriter = arm.open

	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	ds, err := reg.AddDataset("tiny", testSource(t))
	if err != nil {
		t.Fatal(err)
	}
	sess := ds.SessionAt(1)
	if _, err := sess.Marginal(1, bipartite.Left); err != nil {
		t.Fatalf("healthy marginal: %v", err)
	}
	spent, seq := ds.Spent(), sess.Seq()

	arm.fail.Store(true)
	if _, err := sess.Marginal(1, bipartite.Left); !errors.Is(err, accountant.ErrLedgerFailed) {
		t.Fatalf("query over failed WAL: got %v, want ErrLedgerFailed", err)
	}
	if got := sess.Seq(); got != seq {
		t.Fatalf("failed spend advanced seq %d → %d", seq, got)
	}
	if got := ds.Spent(); got != spent {
		t.Fatalf("failed spend changed Spent %s → %s", spent, got)
	}
	// The failure latches even after the injector heals: no spend is
	// admitted past a possibly-torn WAL tail.
	arm.fail.Store(false)
	if _, err := sess.Marginal(1, bipartite.Left); !errors.Is(err, accountant.ErrLedgerFailed) {
		t.Fatalf("query after latched failure: got %v, want ErrLedgerFailed", err)
	}
	st, _ := ds.Durability()
	if st.Err == "" {
		t.Fatal("Durability.Err empty after latched failure")
	}
}

// TestDurableDifferentDataFreshLedger: re-ingesting DIFFERENT data under
// a reused name must key a fresh ledger file, not inherit the old spend.
func TestDurableDifferentDataFreshLedger(t *testing.T) {
	t.Parallel()
	cfg := durableConfig(t)

	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	ds, err := reg.AddDataset("tiny", testSource(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.SessionAt(1).Marginal(1, bipartite.Left); err != nil {
		t.Fatal(err)
	}
	if err := reg.RemoveDataset("tiny"); err != nil {
		t.Fatal(err)
	}

	gen := datagen.Config{
		Name: "other", NumLeft: 80, NumRight: 90, NumEdges: 900,
		LeftZipf: 1.5, RightZipf: 2.0, Seed: 99,
	}
	edges, nl, nr, err := datagen.EdgeList(gen)
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := reg.AddDataset("tiny", bipartite.NewSliceSource(nl, nr, edges))
	if err != nil {
		t.Fatal(err)
	}
	if got := ds2.Spent(); got != (dp.Params{}) {
		t.Fatalf("different data inherited spend %s", got)
	}
	wals, _ := filepath.Glob(filepath.Join(cfg.LedgerDir, "*.wal"))
	if len(wals) != 2 {
		t.Fatalf("want 2 ledger files (one per fingerprint), got %v", wals)
	}
}

// TestDurableRemoveReopensSameBudget: RemoveDataset releases the flock
// so re-adding the SAME data reopens the same file with its spend.
func TestDurableRemoveReopensSameBudget(t *testing.T) {
	t.Parallel()
	cfg := durableConfig(t)

	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	ds, err := reg.AddDataset("tiny", testSource(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.SessionAt(1).Marginal(1, bipartite.Left); err != nil {
		t.Fatal(err)
	}
	spent := ds.Spent()
	if err := reg.RemoveDataset("tiny"); err != nil {
		t.Fatal(err)
	}
	ds2, err := reg.AddDataset("tiny", testSource(t))
	if err != nil {
		t.Fatalf("re-add after remove: %v", err)
	}
	if got := ds2.Spent(); got != spent {
		t.Fatalf("re-added Spent = %s, want %s", got, spent)
	}
}

// TestBudgetEndpointDurability: /budget exposes the durability panel for
// durable datasets and {"durable": false} for in-memory ones.
func TestBudgetEndpointDurability(t *testing.T) {
	t.Parallel()
	check := func(cfg Config, wantDurable bool) {
		reg, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { reg.Close() })
		if _, err := reg.AddDataset("tiny", testSource(t)); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewHandler(reg))
		t.Cleanup(srv.Close)
		resp, err := srv.Client().Get(srv.URL + "/v1/datasets/tiny/budget")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Durability struct {
				Durable    bool   `json:"durable"`
				Path       string `json:"path"`
				Policy     string `json:"policy"`
				WALRecords *int   `json:"wal_records"`
			} `json:"durability"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if body.Durability.Durable != wantDurable {
			t.Fatalf("durability.durable = %v, want %v", body.Durability.Durable, wantDurable)
		}
		if wantDurable {
			if body.Durability.Path == "" || body.Durability.Policy != string(accountant.FsyncAlways) {
				t.Fatalf("durable status incomplete: %+v", body.Durability)
			}
			if body.Durability.WALRecords == nil {
				t.Fatal("durable status missing wal_records")
			}
		} else if body.Durability.WALRecords != nil {
			t.Fatal("in-memory dataset leaked durable status fields")
		}
	}
	check(durableConfig(t), true)
	check(testConfig(), false)
}

// failNextWrite is a serve-layer fault injector for cfg.ledgerOpenWriter:
// real files until fail is set, then every write errors.
type failNextWrite struct {
	fail atomic.Bool
}

func (a *failNextWrite) open(path string) (accountant.WriteSyncer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &failingWriter{f: f, fail: &a.fail}, nil
}

type failingWriter struct {
	f    *os.File
	fail *atomic.Bool
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.fail.Load() {
		return 0, fmt.Errorf("injected serve-layer write failure")
	}
	return w.f.Write(p)
}

func (w *failingWriter) Sync() error {
	if w.fail.Load() {
		return fmt.Errorf("injected serve-layer sync failure")
	}
	return w.f.Sync()
}

func (w *failingWriter) Close() error { return w.f.Close() }

// TestHTTPLedgerStatesAreServerErrors: a ledger that is closed, held by
// another process or damaged is the server's problem — 503 ledger-failed,
// never 400 bad-request.
func TestHTTPLedgerStatesAreServerErrors(t *testing.T) {
	t.Parallel()
	cfg := durableConfig(t)
	srv, reg := newTestServer(t, cfg)
	tsv := testTSV(t)
	want503 := func(what, method, url string, body []byte) {
		t.Helper()
		if out := do(t, method, url, body, "", http.StatusServiceUnavailable); out["code"] != "ledger-failed" {
			t.Fatalf("%s: response = %v, want code ledger-failed", what, out)
		}
	}
	do(t, "POST", srv.URL+"/v1/datasets/d", tsv, "", http.StatusCreated)
	sess := do(t, "POST", srv.URL+"/v1/datasets/d/sessions", nil, "", http.StatusCreated)
	query := fmt.Sprintf("%s/v1/sessions/%.0f/marginal", srv.URL, sess["session"].(float64))

	// Locked: a second registry over the same ledger dir ingests the same
	// data while the first still holds the WAL.
	other, _ := newTestServer(t, cfg)
	want503("WAL held by another registry", "POST", other.URL+"/v1/datasets/d", tsv)

	// Closed: the session outlives its dataset's removal.
	if err := reg.RemoveDataset("d"); err != nil {
		t.Fatal(err)
	}
	want503("query after RemoveDataset", "POST", query, []byte(`{"level": 1, "side": "left"}`))

	// Corrupt: the WAL the re-ingest reopens has a foreign magic.
	wals, err := filepath.Glob(filepath.Join(cfg.LedgerDir, "*.wal"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("want one WAL in the ledger dir, got %v (%v)", wals, err)
	}
	if err := os.WriteFile(wals[0], []byte("NOTAWAL1 and then some"), 0o644); err != nil {
		t.Fatal(err)
	}
	want503("re-ingest over a damaged WAL", "POST", srv.URL+"/v1/datasets/d", tsv)
}
