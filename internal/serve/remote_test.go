package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/accountant"
	"repro/internal/bipartite"
	"repro/internal/ledgerd"
)

// startSequencer runs a gdpledgerd service behind an httptest listener.
func startSequencer(t *testing.T) (*httptest.Server, *ledgerd.Group) {
	t.Helper()
	svc, err := ledgerd.New(ledgerd.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("ledgerd.New: %v", err)
	}
	t.Cleanup(func() { svc.Close() })
	srv := httptest.NewServer(ledgerd.NewHandler(svc))
	t.Cleanup(srv.Close)
	return srv, svc
}

// remoteConfig is testConfig pointed at a sequencer, with fast client
// retries.
func remoteConfig(addr string) Config {
	cfg := testConfig()
	cfg.LedgerAddr = addr
	cfg.ledgerRemoteOptions = accountant.RemoteOptions{
		Timeout:     2 * time.Second,
		Attempts:    2,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
	return cfg
}

func TestLedgerConfigConflicts(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"dir+addr", func(c *Config) { c.LedgerDir = t.TempDir(); c.LedgerAddr = "127.0.0.1:1" }},
		{"addr+fsync", func(c *Config) { c.LedgerAddr = "127.0.0.1:1"; c.LedgerFsync = accountant.FsyncAlways }},
		{"addr+fsync-interval", func(c *Config) { c.LedgerAddr = "127.0.0.1:1"; c.LedgerFsyncInterval = time.Second }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mut(&cfg)
			if _, err := Open(cfg); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Open with conflicting ledger config: got %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestOpenPingsSequencer(t *testing.T) {
	t.Parallel()
	// Port 1 refuses connections: a registry that could never account a
	// spend must fail at Open, not at the first ingest.
	cfg := testConfig()
	cfg.LedgerAddr = "127.0.0.1:1"
	if _, err := Open(cfg); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Open against dead sequencer: got %v, want ErrBadConfig", err)
	}
}

// TestTwoReplicasShareOneBudget is the PR's reason to exist: two
// registries (replicas) pointed at one sequencer drain ONE budget to
// exactly the budgeted admit count — never its multiple — and both
// refuse afterwards.
func TestTwoReplicasShareOneBudget(t *testing.T) {
	t.Parallel()
	srv, _ := startSequencer(t)
	cfg := remoteConfig(srv.URL)

	replicas := make([]*Dataset, 2)
	for i := range replicas {
		reg, err := Open(cfg)
		if err != nil {
			t.Fatalf("Open replica %d: %v", i, err)
		}
		t.Cleanup(func() { reg.Close() })
		ds, err := reg.AddDataset("tiny", testSource(t))
		if err != nil {
			t.Fatalf("ingest on replica %d: %v", i, err)
		}
		if got := ds.LedgerBackend(); got != "remote" {
			t.Fatalf("replica %d backend %q, want remote", i, got)
		}
		replicas[i] = ds
	}

	// testConfig budgets exactly 50 single-debit queries. 2 replicas × 4
	// spenders × 10 marginals = 80 attempts race for the 50 slots.
	const (
		slots       = 50
		spenders    = 4
		perSpender  = 10
		perReplicaT = spenders * perSpender
	)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		admits  int
		rejects int
	)
	for _, ds := range replicas {
		for g := 0; g < spenders; g++ {
			wg.Add(1)
			go func(ds *Dataset) {
				defer wg.Done()
				sess := ds.NewSession() // auto sessions bypass the response cache
				for i := 0; i < perSpender; i++ {
					_, err := sess.Marginal(1, bipartite.Left)
					mu.Lock()
					switch {
					case err == nil:
						admits++
					case errors.Is(err, accountant.ErrBudgetExceeded):
						rejects++
					default:
						t.Errorf("marginal: %v", err)
					}
					mu.Unlock()
				}
			}(ds)
		}
	}
	wg.Wait()
	if admits != slots {
		t.Fatalf("two replicas admitted %d queries against one budget, want exactly %d (over-admission doubles the paper's guarantee)", admits, slots)
	}
	if rejects != 2*perReplicaT-slots {
		t.Fatalf("rejects %d, want %d", rejects, 2*perReplicaT-slots)
	}
	// Both replicas observe the shared exhaustion, and the sequencer's
	// trail holds exactly the admitted ops.
	for i, ds := range replicas {
		if _, err := ds.NewSession().Marginal(1, bipartite.Left); !errors.Is(err, accountant.ErrBudgetExceeded) {
			t.Fatalf("replica %d after drain: got %v, want ErrBudgetExceeded", i, err)
		}
		if got := ds.OpCount(); got != slots {
			t.Fatalf("replica %d sees %d ops, want %d", i, got, slots)
		}
	}
}

// TestRemoteReplicaByteIdentity: answers are pure functions of (seed,
// dataset, fingerprint, stream, seq, query), so a remote-ledger replica
// returns byte-identical releases to a single-process mem-ledger run
// under the same seed — the accounting backend can never bend a noise
// draw.
func TestRemoteReplicaByteIdentity(t *testing.T) {
	t.Parallel()
	srv, _ := startSequencer(t)

	answers := func(cfg Config) string {
		reg, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		ds, err := reg.AddDataset("tiny", testSource(t))
		if err != nil {
			t.Fatal(err)
		}
		sess := ds.SessionAt(3)
		view, err := sess.ReleaseLevel(2)
		if err != nil {
			t.Fatal(err)
		}
		marg, err := sess.Marginal(1, bipartite.Right)
		if err != nil {
			t.Fatal(err)
		}
		top, err := sess.TopK(2, bipartite.Left, 3)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(map[string]any{"view": view, "marginal": marg, "topk": top})
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}

	local := answers(testConfig())
	remote := answers(remoteConfig(srv.URL))
	if local != remote {
		t.Fatalf("remote-ledger replica diverged from local replay:\nlocal  %s\nremote %s", local, remote)
	}
}

// TestRemoteSpendBeforeRelease: a sequencer that stops answering latches
// the replica fail-closed — queries error, nothing is released, and the
// ledger never under-reports.
func TestRemoteFailClosed(t *testing.T) {
	t.Parallel()
	srv, _ := startSequencer(t)
	cfg := remoteConfig(srv.URL)
	reg, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	ds, err := reg.AddDataset("tiny", testSource(t))
	if err != nil {
		t.Fatal(err)
	}
	sess := ds.NewSession()
	if _, err := sess.Marginal(1, bipartite.Left); err != nil {
		t.Fatalf("marginal while healthy: %v", err)
	}
	srv.CloseClientConnections()
	srv.Close()
	if _, err := sess.Marginal(1, bipartite.Left); !errors.Is(err, accountant.ErrLedgerFailed) {
		t.Fatalf("marginal against dead sequencer: got %v, want ErrLedgerFailed", err)
	}
	// Latched for good: the partition healing is not enough, the replica
	// must re-attach (restart) before spending again.
	if _, err := sess.Marginal(1, bipartite.Left); !errors.Is(err, accountant.ErrLedgerFailed) {
		t.Fatalf("latched marginal: got %v, want ErrLedgerFailed", err)
	}
}

// TestServeReadyz: the replica's readiness gate tracks its ability to
// ACCOUNT queries — it turns 503 when the ledger sequencer becomes
// unreachable, while liveness (/healthz) stays 200. A load balancer
// keyed on readyz stops routing to a replica that could only answer
// with unaccounted (hence refused) queries.
func TestServeReadyz(t *testing.T) {
	t.Parallel()
	seq, _ := startSequencer(t)
	ts, _ := newTestServer(t, remoteConfig(seq.URL))
	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz with live sequencer: HTTP %d, want 200", got)
	}
	seq.CloseClientConnections()
	seq.Close()
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead sequencer: HTTP %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz must stay a liveness probe: HTTP %d, want 200", got)
	}
}

// TestBudgetEndpointRemoteBackend: /budget stamps the accounting
// backend and embeds the sequencer binding for remote datasets.
func TestBudgetEndpointRemoteBackend(t *testing.T) {
	t.Parallel()
	seq, svc := startSequencer(t)
	ts, reg := newTestServer(t, remoteConfig(seq.URL))
	if _, err := reg.AddDataset("web", testSource(t)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/datasets/web/budget")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Durability struct {
			Backend string `json:"backend"`
			Durable bool   `json:"durable"`
			Remote  *struct {
				Addr  string `json:"addr"`
				Key   string `json:"key"`
				Epoch string `json:"epoch"`
			} `json:"remote"`
		} `json:"durability"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Durability.Backend != "remote" || !body.Durability.Durable {
		t.Fatalf("durability = %+v, want backend remote, durable true", body.Durability)
	}
	if body.Durability.Remote == nil || body.Durability.Remote.Epoch != svc.Epoch() {
		t.Fatalf("remote binding = %+v, want epoch %q", body.Durability.Remote, svc.Epoch())
	}
	if !strings.HasPrefix(body.Durability.Remote.Key, "web-") {
		t.Fatalf("remote key %q, want the web-<hash>-<fingerprint> ledger key", body.Durability.Remote.Key)
	}
}

// TestBudgetEndpointOpsCap: ?ops=N caps the audit trail in the /budget
// response; the default stays the full trail, ops=0 omits it.
func TestBudgetEndpointOpsCap(t *testing.T) {
	t.Parallel()
	ts, reg := newTestServer(t, testConfig())
	ds, err := reg.AddDataset("web", testSource(t))
	if err != nil {
		t.Fatal(err)
	}
	sess := ds.SessionAt(9)
	for i := 0; i < 5; i++ {
		if _, err := sess.Marginal(1, bipartite.Left); err != nil {
			t.Fatal(err)
		}
	}

	get := func(query string) (audit string, present bool) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/datasets/web/budget" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /budget%s: HTTP %d", query, resp.StatusCode)
		}
		var body map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		raw, ok := body["audit"]
		if !ok {
			return "", false
		}
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatal(err)
		}
		return s, true
	}

	full, ok := get("")
	if !ok || strings.Count(full, "\n") != 6 { // header + 5 ops + trailing newline
		t.Fatalf("default audit = %q (present %v), want the full 5-op trail", full, ok)
	}
	capped, ok := get("?ops=2")
	if !ok {
		t.Fatal("?ops=2 omitted the audit entirely")
	}
	if !strings.Contains(capped, "showing last 2") || strings.Count(capped, "\n") != 3 {
		t.Fatalf("?ops=2 audit = %q, want header + 2 ops", capped)
	}
	if !strings.Contains(capped, "q4/marginal") {
		t.Fatalf("?ops=2 audit = %q, want the MOST RECENT ops", capped)
	}
	if big, ok := get("?ops=100"); !ok || big != full {
		t.Fatalf("?ops=100 audit should equal the full trail")
	}
	if _, ok := get("?ops=0"); ok {
		t.Fatal("?ops=0 still carried an audit trail")
	}
	// Malformed caps are a client error, not a silent full dump.
	resp, err := http.Get(ts.URL + "/v1/datasets/web/budget?ops=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?ops=-1: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestBackendStamps: the wal and mem backends stamp themselves too —
// a reader of /budget keys on this to refuse cross-backend comparisons.
func TestBackendStamps(t *testing.T) {
	t.Parallel()
	memCfg := testConfig()
	_, memDS := openTestDataset(t, memCfg)
	if got := memDS.LedgerBackend(); got != "mem" {
		t.Fatalf("mem backend stamp %q", got)
	}
	walCfg := testConfig()
	walCfg.LedgerDir = t.TempDir()
	reg, err := Open(walCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	ds, err := reg.AddDataset("tiny", testSource(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.LedgerBackend(); got != "wal" {
		t.Fatalf("wal backend stamp %q", got)
	}
	if _, ok := ds.RemoteStatus(); ok {
		t.Fatal("wal dataset reports a remote binding")
	}
}
