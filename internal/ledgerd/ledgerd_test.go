package ledgerd_test

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/accountant"
	"repro/internal/accountant/ledgertest"
	"repro/internal/dp"
	"repro/internal/ledgerd"
)

func newService(t *testing.T, dir string) *ledgerd.Group {
	t.Helper()
	svc, err := ledgerd.New(ledgerd.Options{Dir: dir})
	if err != nil {
		t.Fatalf("ledgerd.New: %v", err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

// fastRemote is the client policy for tests: real retries, no real
// waiting.
func fastRemote() accountant.RemoteOptions {
	return accountant.RemoteOptions{
		Timeout:     2 * time.Second,
		Attempts:    3,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
}

func TestSpendExactlyOnce(t *testing.T) {
	svc := newService(t, t.TempDir())
	budget := dp.Params{Epsilon: 1, Delta: 1e-5}
	att, err := svc.Attach("k1", budget)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	cost := dp.Params{Epsilon: 0.1, Delta: 1e-6}
	first, err := svc.Spend("k1", att.Epoch, "op-1", "s1/q0/view/level2", cost)
	if err != nil {
		t.Fatalf("Spend: %v", err)
	}
	if first.Replayed || first.Seq != 1 {
		t.Fatalf("first spend: %+v, want fresh seq 1", first)
	}
	// The same op ID retried — however many times — re-acks without
	// re-debiting.
	for i := 0; i < 3; i++ {
		again, err := svc.Spend("k1", att.Epoch, "op-1", "s1/q0/view/level2", cost)
		if err != nil {
			t.Fatalf("retry %d: %v", i, err)
		}
		if !again.Replayed || again.Seq != 1 || again.OpCount != 1 {
			t.Fatalf("retry %d: %+v, want replayed seq 1 of 1 op", i, again)
		}
	}
	if got := first.Spent; got != cost {
		t.Fatalf("spent %v, want %v", got, cost)
	}
}

func TestEpochFencingAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	budget := dp.Params{Epsilon: 1, Delta: 1e-5}
	cost := dp.Params{Epsilon: 0.25, Delta: 2.5e-6}

	svc1, err := ledgerd.New(ledgerd.Options{Dir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	att1, err := svc1.Attach("k", budget)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if _, err := svc1.Spend("k", att1.Epoch, "a-1", "x", cost); err != nil {
		t.Fatalf("Spend: %v", err)
	}
	// A token the sequencer never issued is fenced immediately.
	if _, err := svc1.Spend("k", "deadbeef:1", "a-2", "x", cost); !errors.Is(err, ledgerd.ErrEpochFenced) {
		t.Fatalf("bogus epoch: got %v, want ErrEpochFenced", err)
	}
	if err := svc1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	svc2 := newService(t, dir)
	if svc2.Epoch() == att1.Epoch {
		t.Fatal("restart reused the previous epoch token")
	}
	// The predecessor's token is fenced: a replica that attached before
	// the restart cannot keep spending on stale assumptions.
	if _, err := svc2.Spend("k", att1.Epoch, "a-3", "x", cost); !errors.Is(err, ledgerd.ErrEpochFenced) {
		t.Fatalf("stale epoch: got %v, want ErrEpochFenced", err)
	}
	// Re-attaching replays the durable state — spent survives, and the
	// first incarnation's op ID is still deduped.
	att2, err := svc2.Attach("k", budget)
	if err != nil {
		t.Fatalf("re-Attach: %v", err)
	}
	if att2.Spent != cost || att2.OpCount != 1 {
		t.Fatalf("replayed state %+v, want spent %v over 1 op", att2, cost)
	}
	res, err := svc2.Spend("k", att2.Epoch, "a-1", "x", cost)
	if err != nil {
		t.Fatalf("retry across restart: %v", err)
	}
	if !res.Replayed || res.OpCount != 1 {
		t.Fatalf("retry across restart: %+v, want replayed with no new debit", res)
	}
}

func TestAttachBudgetMismatch(t *testing.T) {
	svc := newService(t, t.TempDir())
	if _, err := svc.Attach("k", dp.Params{Epsilon: 1, Delta: 1e-5}); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	_, err := svc.Attach("k", dp.Params{Epsilon: 2, Delta: 1e-5})
	if !errors.Is(err, accountant.ErrBudgetMismatch) {
		t.Fatalf("conflicting attach: got %v, want ErrBudgetMismatch", err)
	}
}

func TestExhaustionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	budget := dp.Params{Epsilon: 0.2, Delta: 2e-6}
	cost := dp.Params{Epsilon: 0.1, Delta: 1e-6}

	svc1, err := ledgerd.New(ledgerd.Options{Dir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	att, err := svc1.Attach("k", budget)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := svc1.Spend("k", att.Epoch, fmt.Sprintf("op-%d", i), "x", cost); err != nil {
			t.Fatalf("Spend %d: %v", i, err)
		}
	}
	if _, err := svc1.Spend("k", att.Epoch, "op-over", "x", cost); !errors.Is(err, accountant.ErrBudgetExceeded) {
		t.Fatalf("over-budget: got %v, want ErrBudgetExceeded", err)
	}
	svc1.Close()

	svc2 := newService(t, dir)
	att2, err := svc2.Attach("k", budget)
	if err != nil {
		t.Fatalf("re-Attach: %v", err)
	}
	if att2.OpCount != 2 {
		t.Fatalf("replayed %d ops, want 2", att2.OpCount)
	}
	if _, err := svc2.Spend("k", att2.Epoch, "op-after", "x", cost); !errors.Is(err, accountant.ErrBudgetExceeded) {
		t.Fatalf("exhausted budget after restart: got %v, want ErrBudgetExceeded", err)
	}
}

func TestKeyAndOpIDValidation(t *testing.T) {
	svc := newService(t, t.TempDir())
	for _, key := range []string{"", ".hidden", "../escape", "a/b", ".sequencer-epoch"} {
		if _, err := svc.Attach(key, dp.Params{Epsilon: 1}); !errors.Is(err, ledgerd.ErrBadKey) {
			t.Errorf("Attach(%q): got %v, want ErrBadKey", key, err)
		}
	}
	att, err := svc.Attach("ok", dp.Params{Epsilon: 1})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	for _, opID := range []string{"", "has|sep"} {
		if _, err := svc.Spend("ok", att.Epoch, opID, "x", dp.Params{Epsilon: 0.1}); !errors.Is(err, ledgerd.ErrBadOpID) {
			t.Errorf("Spend(opID %q): got %v, want ErrBadOpID", opID, err)
		}
	}
	if _, err := svc.Spend("never-attached", att.Epoch, "op", "x", dp.Params{Epsilon: 0.1}); !errors.Is(err, ledgerd.ErrNotAttached) {
		t.Errorf("unattached key: got %v, want ErrNotAttached", err)
	}
}

func TestOpsStripEnvelope(t *testing.T) {
	svc := newService(t, t.TempDir())
	att, err := svc.Attach("k", dp.Params{Epsilon: 1, Delta: 1e-5})
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if _, err := svc.Spend("k", att.Epoch, "client-7-1", "s1/q0/marginal/level3", dp.Params{Epsilon: 0.1, Delta: 1e-6}); err != nil {
		t.Fatalf("Spend: %v", err)
	}
	ops, err := svc.Ops("k")
	if err != nil {
		t.Fatalf("Ops: %v", err)
	}
	if len(ops) != 1 || ops[0].Label != "s1/q0/marginal/level3" {
		t.Fatalf("ops %+v, want the client label without the op-ID envelope", ops)
	}
}

// TestRemoteLedgerConformance runs the shared Ledger suite against
// RemoteLedger talking to a live sequencer — the same contract
// MemLedger and DurableLedger pass in internal/accountant.
func TestRemoteLedgerConformance(t *testing.T) {
	var (
		n   int
		srv *httptest.Server
	)
	ledgertest.Run(t, ledgertest.Factory{
		New: func(t *testing.T, budget dp.Params) accountant.Ledger {
			n++
			svc := newService(t, t.TempDir())
			srv = httptest.NewServer(ledgerd.NewHandler(svc))
			t.Cleanup(srv.Close)
			rl, err := accountant.OpenRemoteLedger(srv.URL, fmt.Sprintf("conf-%d", n), budget, fastRemote())
			if err != nil {
				t.Fatalf("OpenRemoteLedger: %v", err)
			}
			t.Cleanup(func() { rl.Close() })
			return rl
		},
		// Failure mode: the sequencer becomes unreachable mid-flight.
		Fail: func(t *testing.T, _ accountant.Ledger) {
			srv.CloseClientConnections()
			srv.Close()
		},
	})
}

// TestRemoteLedgerLostAck is the exactly-once property end to end: the
// sequencer admits a spend but its ack is lost (injected 500 after the
// real handler ran); the client retries the SAME op ID and must end up
// with exactly one debit.
func TestRemoteLedgerLostAck(t *testing.T) {
	svc := newService(t, t.TempDir())
	inner := ledgerd.NewHandler(svc)
	var dropNextAck atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dropNextAck.CompareAndSwap(true, false) {
			// Run the real admission, then lose the response on the way
			// back — the client sees a 500, the WAL saw the op.
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			http.Error(w, "injected ack loss", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	budget := dp.Params{Epsilon: 1, Delta: 1e-5}
	rl, err := accountant.OpenRemoteLedger(srv.URL, "lostack", budget, fastRemote())
	if err != nil {
		t.Fatalf("OpenRemoteLedger: %v", err)
	}
	defer rl.Close()

	dropNextAck.Store(true)
	if err := rl.Spend("q0", dp.Params{Epsilon: 0.1, Delta: 1e-6}); err != nil {
		t.Fatalf("spend through lost ack: %v", err)
	}
	if got := rl.OpCount(); got != 1 {
		t.Fatalf("op count %d, want exactly 1 (the retry must dedup, not double-debit)", got)
	}
	if got, want := rl.Spent(), (dp.Params{Epsilon: 0.1, Delta: 1e-6}); got != want {
		t.Fatalf("spent %v, want %v", got, want)
	}
}

// TestRemoteLedgerFencedLatches drives a sequencer restart under a live
// client: the stale epoch must latch the client fail-closed, and a
// fresh client must see the durable state.
func TestRemoteLedgerFencedLatches(t *testing.T) {
	dir := t.TempDir()
	budget := dp.Params{Epsilon: 1, Delta: 1e-5}
	cost := dp.Params{Epsilon: 0.1, Delta: 1e-6}

	svc1, err := ledgerd.New(ledgerd.Options{Dir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var svc atomic.Pointer[ledgerd.Group]
	svc.Store(svc1)
	// One stable URL whose backing service is swapped mid-test — the
	// HTTP analogue of a sequencer restart behind a stable address.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ledgerd.NewHandler(svc.Load()).ServeHTTP(w, r)
	}))
	defer srv.Close()

	rl, err := accountant.OpenRemoteLedger(srv.URL, "fenced", budget, fastRemote())
	if err != nil {
		t.Fatalf("OpenRemoteLedger: %v", err)
	}
	defer rl.Close()
	if err := rl.Spend("q0", cost); err != nil {
		t.Fatalf("spend before restart: %v", err)
	}

	if err := svc1.Close(); err != nil {
		t.Fatalf("closing first incarnation: %v", err)
	}
	svc2 := newService(t, dir)
	svc.Store(svc2)

	// The client's pinned epoch is now stale: the sequencer fences the
	// spend and the client latches ErrLedgerFailed — nothing is released
	// on assumptions the restart may have invalidated.
	if err := rl.Spend("q1", cost); !errors.Is(err, accountant.ErrLedgerFailed) {
		t.Fatalf("spend across restart: got %v, want ErrLedgerFailed", err)
	}
	if err := rl.Spend("q2", cost); !errors.Is(err, accountant.ErrLedgerFailed) {
		t.Fatalf("latched spend: got %v, want ErrLedgerFailed", err)
	}

	// A fresh client re-attaches and sees every durably admitted op.
	rl2, err := accountant.OpenRemoteLedger(srv.URL, "fenced", budget, fastRemote())
	if err != nil {
		t.Fatalf("re-open after restart: %v", err)
	}
	defer rl2.Close()
	if got := rl2.OpCount(); got != 1 {
		t.Fatalf("replayed op count %d, want 1", got)
	}
	if err := rl2.Spend("q3", cost); err != nil {
		t.Fatalf("fresh client spend: %v", err)
	}
}

// TestHTTPProtocol exercises the wire layer directly: status codes and
// error codes are the contract RemoteLedger keys its fail-closed
// behavior on.
func TestHTTPProtocol(t *testing.T) {
	svc := newService(t, t.TempDir())
	srv := httptest.NewServer(ledgerd.NewHandler(svc))
	defer srv.Close()

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		buf := make([]byte, 4096)
		n, _ := resp.Body.Read(buf)
		return resp.StatusCode, string(buf[:n])
	}

	status, body := post("/v1/ledgers/web/attach", `{"budget":{"epsilon":0.2,"delta":2e-6}}`)
	if status != http.StatusOK {
		t.Fatalf("attach: HTTP %d: %s", status, body)
	}
	epoch := svc.Epoch()

	status, body = post("/v1/ledgers/web/spend",
		fmt.Sprintf(`{"epoch":%q,"op_id":"c-1","label":"q0","cost":{"epsilon":0.1,"delta":1e-6}}`, epoch))
	if status != http.StatusOK {
		t.Fatalf("spend: HTTP %d: %s", status, body)
	}

	// Stale epoch → 409 epoch-fenced.
	status, body = post("/v1/ledgers/web/spend",
		`{"epoch":"0000000000000000:0","op_id":"c-2","label":"q1","cost":{"epsilon":0.1,"delta":1e-6}}`)
	if status != http.StatusConflict || !contains(body, ledgerd.CodeEpochFenced) {
		t.Fatalf("stale epoch: HTTP %d: %s, want 409 %s", status, body, ledgerd.CodeEpochFenced)
	}

	// Conflicting budget → 409 budget-mismatch.
	status, body = post("/v1/ledgers/web/attach", `{"budget":{"epsilon":9,"delta":2e-6}}`)
	if status != http.StatusConflict || !contains(body, ledgerd.CodeBudgetMismatch) {
		t.Fatalf("budget mismatch: HTTP %d: %s, want 409 %s", status, body, ledgerd.CodeBudgetMismatch)
	}

	// Drain the second half of the budget, then over-spend → 429.
	status, body = post("/v1/ledgers/web/spend",
		fmt.Sprintf(`{"epoch":%q,"op_id":"c-3","label":"q1","cost":{"epsilon":0.1,"delta":1e-6}}`, epoch))
	if status != http.StatusOK {
		t.Fatalf("second spend: HTTP %d: %s", status, body)
	}
	status, body = post("/v1/ledgers/web/spend",
		fmt.Sprintf(`{"epoch":%q,"op_id":"c-4","label":"q2","cost":{"epsilon":0.1,"delta":1e-6}}`, epoch))
	if status != http.StatusTooManyRequests || !contains(body, ledgerd.CodeBudgetExceeded) {
		t.Fatalf("over-spend: HTTP %d: %s, want 429 %s", status, body, ledgerd.CodeBudgetExceeded)
	}

	// Unknown field → 400 (a malformed spend must not run as whatever
	// its prefix parses as).
	status, body = post("/v1/ledgers/web/spend", `{"oops":1}`)
	if status != http.StatusBadRequest {
		t.Fatalf("unknown field: HTTP %d: %s, want 400", status, body)
	}

	// Status and ops read back.
	resp, err := http.Get(srv.URL + "/v1/ledgers/web")
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status: HTTP %d", resp.StatusCode)
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }
