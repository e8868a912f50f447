package ledgerd_test

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/accountant"
	"repro/internal/accountant/ledgertest"
	"repro/internal/dp"
	"repro/internal/ledgerd"
)

// clusterNode is one in-process group member: a real HTTP listener
// whose handler is swappable (so a member can "die" and be replaced on
// the same address, like a restarted process keeps its host:port) and a
// FaultTransport arming this node's OUTBOUND replication traffic.
type clusterNode struct {
	id      string
	dir     string
	srv     *httptest.Server
	fault   *ledgerd.FaultTransport
	group   *ledgerd.Group
	handler atomic.Pointer[http.Handler]
}

// cluster is a 3-node (or N-node) in-process sequencer group. Listeners
// come up first so the member map is known before any Group starts —
// the same bootstrap order real deployments use (addresses are config,
// processes come and go).
type cluster struct {
	t     testing.TB
	ids   []string
	nodes map[string]*clusterNode
	peers map[string]string
}

func newCluster(t testing.TB, n int, electionTimeout time.Duration) *cluster {
	t.Helper()
	c := &cluster{t: t, nodes: make(map[string]*clusterNode), peers: make(map[string]string)}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i+1)
		nd := &clusterNode{id: id, dir: filepath.Join(t.TempDir(), id)}
		nd.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h := nd.handler.Load()
			if h == nil {
				http.Error(w, "member not running", http.StatusServiceUnavailable)
				return
			}
			(*h).ServeHTTP(w, r)
		}))
		c.ids = append(c.ids, id)
		c.nodes[id] = nd
		c.peers[id] = nd.srv.URL
	}
	for _, id := range c.ids {
		c.start(id, electionTimeout)
	}
	t.Cleanup(c.close)
	return c
}

// start boots (or reboots) one member over whatever is in its dir.
func (c *cluster) start(id string, electionTimeout time.Duration) *ledgerd.Group {
	c.t.Helper()
	nd := c.nodes[id]
	nd.fault = &ledgerd.FaultTransport{Inner: &ledgerd.HTTPGroupTransport{}}
	g, err := ledgerd.New(ledgerd.Options{
		NodeID:          id,
		Peers:           c.peers,
		Dir:             nd.dir,
		HeartbeatEvery:  20 * time.Millisecond,
		ElectionTimeout: electionTimeout,
		RPCTimeout:      time.Second,
		Transport:       nd.fault,
		Logf:            c.t.Logf,
	})
	if err != nil {
		c.t.Fatalf("starting member %s: %v", id, err)
	}
	nd.group = g
	h := ledgerd.NewHandler(g)
	nd.handler.Store(&h)
	return g
}

// stop closes one member's Group but keeps its listener: requests now
// bounce, like a crashed process behind a live address.
func (c *cluster) stop(id string) {
	nd := c.nodes[id]
	nd.handler.Store(nil)
	if nd.group != nil {
		nd.group.Close()
	}
}

func (c *cluster) close() {
	for _, id := range c.ids {
		if g := c.nodes[id].group; g != nil {
			g.Close()
		}
	}
	for _, id := range c.ids {
		c.nodes[id].srv.Close()
	}
}

func (c *cluster) group(id string) *ledgerd.Group { return c.nodes[id].group }

// members is the comma-joined address list a RemoteLedger client gets.
func (c *cluster) members() string {
	urls := make([]string, len(c.ids))
	for i, id := range c.ids {
		urls[i] = c.peers[id]
	}
	return strings.Join(urls, ",")
}

// partition cuts id off from the group in BOTH directions: its own
// outbound traffic is dropped and every other member drops traffic
// toward it. Client HTTP (spend/attach) still reaches it — exactly the
// dangerous shape: a fenced ex-primary that looks alive to clients.
func (c *cluster) partition(id string) {
	c.nodes[id].fault.DropAll()
	for _, other := range c.ids {
		if other != id {
			c.nodes[other].fault.Drop(c.peers[id])
		}
	}
}

func (c *cluster) heal() {
	for _, nd := range c.nodes {
		nd.fault.Heal()
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// groupRemote is the multi-member client policy for tests: enough
// attempts to ride out a deliberate failover, no real waiting.
func groupRemote() accountant.RemoteOptions {
	return accountant.RemoteOptions{
		Timeout:     2 * time.Second,
		OpTimeout:   30 * time.Second,
		Attempts:    30,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
}

func TestGroupPromoteSpendReplicate(t *testing.T) {
	c := newCluster(t, 3, -1) // manual promotion: fully deterministic
	g1 := c.group("n1")
	if err := g1.Promote(); err != nil {
		t.Fatalf("promoting n1: %v", err)
	}
	budget := dp.Params{Epsilon: 1, Delta: 1e-5}
	att, err := g1.Attach("k", budget)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if !strings.HasSuffix(att.Epoch, ":1") {
		t.Fatalf("epoch %q, want term 1", att.Epoch)
	}
	cost := dp.Params{Epsilon: 0.1, Delta: 1e-6}
	for i := 1; i <= 3; i++ {
		res, err := g1.Spend("k", att.Epoch, fmt.Sprintf("op-%d", i), fmt.Sprintf("q%d", i), cost)
		if err != nil {
			t.Fatalf("spend %d: %v", i, err)
		}
		if res.Replayed || res.Seq != i {
			t.Fatalf("spend %d = %+v, want fresh seq %d", i, res, i)
		}
	}
	// An acked spend is already durable on a majority; a retry replays.
	again, err := g1.Spend("k", att.Epoch, "op-2", "q2", cost)
	if err != nil || !again.Replayed || again.Seq != 2 || again.OpCount != 3 {
		t.Fatalf("retried spend = %+v, %v; want replayed seq 2 of 3", again, err)
	}
	// A stale epoch is fenced exactly like single-node mode.
	if _, err := g1.Spend("k", "term:0", "op-9", "q9", cost); !errors.Is(err, ledgerd.ErrEpochFenced) {
		t.Fatalf("stale-epoch spend: got %v, want ErrEpochFenced", err)
	}
	// Followers refuse client traffic — the member walk is the client's
	// job, not silent forwarding.
	if _, err := c.group("n2").Spend("k", att.Epoch, "op-9", "q9", cost); !errors.Is(err, ledgerd.ErrNotPrimary) {
		t.Fatalf("follower spend: got %v, want ErrNotPrimary", err)
	}
	if _, err := c.group("n3").Attach("k", budget); !errors.Is(err, ledgerd.ErrNotPrimary) {
		t.Fatalf("follower attach: got %v, want ErrNotPrimary", err)
	}
	// Heartbeats carry the commit index; followers converge on the
	// applied state without any client traffic reaching them.
	for _, id := range []string{"n2", "n3"} {
		waitFor(t, 5*time.Second, id+" applying the committed log", func() bool {
			st := c.group(id).GroupStatus()
			return st.Applied == g1.GroupStatus().Commit && st.Keys == 1
		})
	}
}

// TestGroupConformance runs the shared ledger conformance suite through
// the full stack: RemoteLedger client → HTTP → replicated 3-node group.
// The group must be indistinguishable from any other Ledger backend —
// including exact admission counts under concurrent drain.
func TestGroupConformance(t *testing.T) {
	var c *cluster // the most recently started group
	ledgertest.Run(t, ledgertest.Factory{
		New: func(t *testing.T, budget dp.Params) accountant.Ledger {
			c = newCluster(t, 3, -1)
			if err := c.group("n1").Promote(); err != nil {
				t.Fatalf("promoting n1: %v", err)
			}
			rl, err := accountant.OpenRemoteLedger(c.members(), "conf", budget, groupRemote())
			if err != nil {
				t.Fatalf("OpenRemoteLedger: %v", err)
			}
			return rl
		},
		// Failure mode: every member of the group stops.
		Fail: func(t *testing.T, _ accountant.Ledger) {
			for _, id := range c.ids {
				c.stop(id)
			}
		},
	})
}

// TestGroupFailClosedLatching checks what the conformance suite's
// latching step cannot see through the Ledger interface: once every
// member is gone, the client latches, stays latched, and its Status
// reports the failure.
func TestGroupFailClosedLatching(t *testing.T) {
	c := newCluster(t, 3, -1)
	if err := c.group("n1").Promote(); err != nil {
		t.Fatalf("promoting n1: %v", err)
	}
	budget := dp.Params{Epsilon: 1, Delta: 1e-4}
	rl, err := accountant.OpenRemoteLedger(c.members(), "latch", budget, groupRemote())
	if err != nil {
		t.Fatalf("OpenRemoteLedger: %v", err)
	}
	per := dp.Params{Epsilon: 0.1, Delta: 1e-5}
	if err := rl.Spend("healthy", per); err != nil {
		t.Fatalf("spend before failure: %v", err)
	}
	before := rl.Spent()
	for _, id := range c.ids {
		c.stop(id)
	}
	if err := rl.Spend("after-failure", per); err == nil {
		t.Fatal("spend with the whole group down succeeded")
	}
	for i := 0; i < 3; i++ {
		if err := rl.Spend(fmt.Sprintf("latched-%d", i), per); !errors.Is(err, accountant.ErrLedgerFailed) {
			t.Fatalf("spend %d after latch: got %v, want ErrLedgerFailed", i, err)
		}
	}
	if after := rl.Spent(); after.Epsilon < before.Epsilon || after.Delta < before.Delta {
		t.Fatalf("spent decreased across failure: %v -> %v", before, after)
	}
	if st := rl.Status(); st.Err == "" {
		t.Fatal("latched status reports no error")
	}
}

// TestGroupIsolatedBidsLeavePrimary: a member cut off from the group
// bids for promotion again and again, then rejoins. Its bids must not
// raise its term — Phase A of promoteLocked refuses to bid without a
// majority's state — so on healing it follows the healthy primary,
// which keeps its role and term and admits the next spend.
func TestGroupIsolatedBidsLeavePrimary(t *testing.T) {
	c := newCluster(t, 3, -1)
	g1 := c.group("n1")
	if err := g1.Promote(); err != nil {
		t.Fatalf("promoting n1: %v", err)
	}
	budget := dp.Params{Epsilon: 1, Delta: 1e-5}
	cost := dp.Params{Epsilon: 0.1, Delta: 1e-6}
	att, err := g1.Attach("k", budget)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if _, err := g1.Spend("k", att.Epoch, "op-1", "q1", cost); err != nil {
		t.Fatalf("spend before the partition: %v", err)
	}
	before := g1.GroupStatus()

	c.partition("n3")
	for i := 0; i < 5; i++ {
		if err := c.group("n3").Promote(); !errors.Is(err, ledgerd.ErrNoQuorum) {
			t.Fatalf("isolated bid %d: got %v, want ErrNoQuorum", i, err)
		}
	}
	if st := c.group("n3").GroupStatus(); st.Term != before.Term {
		t.Fatalf("isolated member's bids moved its term %d -> %d", before.Term, st.Term)
	}
	c.heal()
	waitFor(t, 5*time.Second, "n3 following n1 again", func() bool {
		st := c.group("n3").GroupStatus()
		return st.Leader == "n1" && st.Applied == g1.GroupStatus().Commit
	})
	if st := g1.GroupStatus(); st.Role != "primary" || st.Term != before.Term {
		t.Fatalf("after the isolated bids n1 is %s at term %d, want primary at term %d", st.Role, st.Term, before.Term)
	}
	res, err := g1.Spend("k", att.Epoch, "op-2", "q2", cost)
	if err != nil || res.Replayed || res.Seq != 2 {
		t.Fatalf("spend after healing = %+v, %v; want fresh seq 2", res, err)
	}
}

// TestGroupFencedExPrimaryCannotAdmit is the partition-injection
// safety test the tentpole promises: once a new term exists, the
// partitioned ex-primary can NEVER admit a spend the new term doesn't
// know about — not while partitioned (no quorum), not after healing
// (fenced and stepped down). Its orphaned log suffix is truncated, so
// the op it failed to admit reappears at most once, on the new primary.
func TestGroupFencedExPrimaryCannotAdmit(t *testing.T) {
	c := newCluster(t, 3, -1)
	g1 := c.group("n1")
	if err := g1.Promote(); err != nil {
		t.Fatalf("promoting n1: %v", err)
	}
	budget := dp.Params{Epsilon: 1, Delta: 1e-5}
	att1, err := g1.Attach("k", budget)
	if err != nil {
		t.Fatalf("attach on n1: %v", err)
	}
	cost := dp.Params{Epsilon: 0.1, Delta: 1e-6}
	for i := 1; i <= 2; i++ {
		if _, err := g1.Spend("k", att1.Epoch, fmt.Sprintf("op-%d", i), fmt.Sprintf("q%d", i), cost); err != nil {
			t.Fatalf("spend %d: %v", i, err)
		}
	}

	c.partition("n1")

	// The partitioned primary appends op-3 locally but cannot reach a
	// majority: the spend MUST be refused (logged-not-admitted).
	if _, err := g1.Spend("k", att1.Epoch, "op-3", "q3", cost); !errors.Is(err, ledgerd.ErrNoQuorum) {
		t.Fatalf("partitioned-primary spend: got %v, want ErrNoQuorum", err)
	}
	orphanLen := g1.GroupStatus().LogLen

	// n2 promotes against the surviving majority and adopts term 2.
	g2 := c.group("n2")
	if err := g2.Promote(); err != nil {
		t.Fatalf("promoting n2: %v", err)
	}
	att2, err := g2.Attach("k", budget)
	if err != nil {
		t.Fatalf("re-attach on n2: %v", err)
	}
	if !strings.HasSuffix(att2.Epoch, ":2") || att2.OpCount != 2 {
		t.Fatalf("re-attach = %+v, want term 2 with the 2 committed ops", att2)
	}
	// The client retries op-3 (same ID) against the new primary: a fresh
	// admission — the ex-primary's orphaned copy never committed.
	res, err := g2.Spend("k", att2.Epoch, "op-3", "q3", cost)
	if err != nil || res.Replayed || res.Seq != 3 {
		t.Fatalf("op-3 on new primary = %+v, %v; want fresh seq 3", res, err)
	}

	// Still partitioned, the ex-primary can admit NOTHING: its own log
	// has an uncommitted suffix it can never settle.
	if _, err := g1.Spend("k", att1.Epoch, "op-4", "q4", cost); !errors.Is(err, ledgerd.ErrNoQuorum) {
		t.Fatalf("ex-primary spend while partitioned: got %v, want ErrNoQuorum", err)
	}

	c.heal()
	// The new primary's replication stream fences n1: it adopts term 2,
	// steps down, truncates the orphaned op-3 copy and converges on the
	// committed log.
	waitFor(t, 10*time.Second, "n1 stepping down and converging", func() bool {
		st := c.group("n1").GroupStatus()
		want := g2.GroupStatus()
		return st.Role == "follower" && st.Term == want.Term &&
			st.LogLen == want.LogLen && st.Applied == want.Commit
	})
	if _, err := g1.Spend("k", att1.Epoch, "op-5", "q5", cost); !errors.Is(err, ledgerd.ErrNotPrimary) {
		t.Fatalf("fenced ex-primary spend after heal: got %v, want ErrNotPrimary", err)
	}
	// Exactly once: op-3 appears a single time in the audit trail.
	ops, err := g2.Ops("k")
	if err != nil {
		t.Fatalf("Ops: %v", err)
	}
	if len(ops) != 3 {
		t.Fatalf("trail has %d ops, want 3: %+v", len(ops), ops)
	}
	if g2.GroupStatus().LogLen == orphanLen {
		t.Log("note: new log coincidentally as long as the orphaned one (barrier replaced orphan)")
	}
}

// TestGroupFailoverMidDrainExactness is the acceptance invariant under
// -race: concurrent clients drain a shared budget through the member
// list while the primary is partitioned away mid-drain and a new one is
// promoted. Admitted ops must equal EXACTLY the budgeted count — no
// double admission across the failover, no lost slots.
func TestGroupFailoverMidDrainExactness(t *testing.T) {
	c := newCluster(t, 3, -1)
	if err := c.group("n1").Promote(); err != nil {
		t.Fatalf("promoting n1: %v", err)
	}
	const slots = 20
	budget := dp.Params{Epsilon: 1, Delta: 1e-4}
	per := dp.Params{Epsilon: budget.Epsilon / slots, Delta: budget.Delta / slots}
	rl, err := accountant.OpenRemoteLedger(c.members(), "drain", budget, groupRemote())
	if err != nil {
		t.Fatalf("OpenRemoteLedger: %v", err)
	}

	var admits, rejects atomic.Int64
	var wg sync.WaitGroup
	// third closes at the slots/3-th admit, from the spender that made
	// it: the rest of the drain is still ahead when the cut lands.
	third := make(chan struct{})
	const spenders = 8
	for g := 0; g < spenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				err := rl.Spend(fmt.Sprintf("g%d-i%d", g, i), per)
				switch {
				case err == nil:
					if admits.Add(1) == slots/3 {
						close(third)
					}
				case errors.Is(err, accountant.ErrBudgetExceeded):
					rejects.Add(1)
				default:
					t.Errorf("spend g%d-i%d: %v", g, i, err)
				}
			}
		}(g)
	}

	// Mid-drain: cut the primary off and immediately promote a survivor.
	// In-flight spends ride the retry walk; an op the ex-primary logged
	// but could not commit is re-driven (same op ID) on the new primary.
	// Majority fsync means the two survivors can legitimately differ by
	// an in-flight entry, and a voter refuses any candidate behind its
	// own log — so try them longest-log-first and retry briefly.
	select {
	case <-third:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a third of the budget to drain")
	}
	c.partition("n1")
	promoted := ""
	deadline := time.Now().Add(5 * time.Second)
	for promoted == "" {
		order := []string{"n2", "n3"}
		if c.group("n3").GroupStatus().LogLen > c.group("n2").GroupStatus().LogLen {
			order = []string{"n3", "n2"}
		}
		var lastErr error
		for _, id := range order {
			if err := c.group(id).Promote(); err != nil {
				lastErr = err
				continue
			}
			promoted = id
			break
		}
		if promoted == "" && time.Now().After(deadline) {
			t.Fatalf("promoting a survivor mid-drain: %v", lastErr)
		}
	}
	wg.Wait()

	if got := admits.Load(); got != slots {
		t.Fatalf("drained %d admitted ops across the failover, want exactly %d (rejects %d)",
			got, slots, rejects.Load())
	}
	if err := rl.Spend("post-drain", per); !errors.Is(err, accountant.ErrBudgetExceeded) {
		t.Fatalf("post-drain spend: got %v, want ErrBudgetExceeded", err)
	}
	st := rl.Status()
	if st.Failovers == 0 || st.Reattaches == 0 {
		t.Fatalf("client status %+v: expected failovers and reattaches > 0", st)
	}
	// The surviving group's trail must hold exactly the admitted ops.
	ops, err := c.group(promoted).Ops("drain")
	if err != nil {
		t.Fatalf("Ops on new primary: %v", err)
	}
	if len(ops) != slots {
		t.Fatalf("group trail has %d ops, want %d", len(ops), slots)
	}
	seen := make(map[string]bool, len(ops))
	for _, op := range ops {
		if seen[op.Label] {
			t.Fatalf("label %q admitted twice", op.Label)
		}
		seen[op.Label] = true
	}
	c.heal()
}

// TestGroupMemberReplacement is the dead-member runbook: stop a
// follower, destroy its state, boot a fresh process under the same
// member ID and address with an EMPTY dir. The leader backtracks its
// nextIndex and streams the full log; the replacement converges on the
// committed state with no operator copying.
func TestGroupMemberReplacement(t *testing.T) {
	c := newCluster(t, 3, -1)
	g1 := c.group("n1")
	if err := g1.Promote(); err != nil {
		t.Fatalf("promoting n1: %v", err)
	}
	budget := dp.Params{Epsilon: 1, Delta: 1e-5}
	att, err := g1.Attach("k", budget)
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	cost := dp.Params{Epsilon: 0.05, Delta: 1e-7}
	for i := 1; i <= 5; i++ {
		if _, err := g1.Spend("k", att.Epoch, fmt.Sprintf("op-%d", i), "q", cost); err != nil {
			t.Fatalf("spend %d: %v", i, err)
		}
	}

	c.stop("n3")
	// The group keeps admitting on the surviving majority.
	for i := 6; i <= 8; i++ {
		if _, err := g1.Spend("k", att.Epoch, fmt.Sprintf("op-%d", i), "q", cost); err != nil {
			t.Fatalf("spend %d with n3 down: %v", i, err)
		}
	}

	// Replace: same ID, same address, empty dir.
	if err := os.RemoveAll(c.nodes["n3"].dir); err != nil {
		t.Fatalf("wiping n3 dir: %v", err)
	}
	c.start("n3", -1)
	want := g1.GroupStatus()
	waitFor(t, 10*time.Second, "replacement n3 catching up", func() bool {
		st := c.group("n3").GroupStatus()
		return st.LogLen == want.LogLen && st.Applied == want.Commit && st.Term == want.Term
	})
	if ready, reason := c.group("n3").Ready(); !ready {
		t.Fatalf("replacement not ready: %s", reason)
	}
}

// TestGroupAutoElection exercises the self-driving mode: no manual
// promotion anywhere. The cluster elects a primary on its own, survives
// losing it, and the client never sees anything but admitted spends.
func TestGroupAutoElection(t *testing.T) {
	c := newCluster(t, 3, 150*time.Millisecond)
	// primary finds a settled leader among the given candidates. A
	// partitioned ex-primary still believes in itself (it cannot know
	// better), so failover waits must exclude it explicitly — exactly
	// why clients trust the member walk, not any one node's self-image.
	primary := func(exclude string) string {
		for _, id := range c.ids {
			if id == exclude {
				continue
			}
			st := c.group(id).GroupStatus()
			if st.Role == "primary" && st.Commit == st.LogLen && st.LogLen > 0 {
				return id
			}
		}
		return ""
	}
	var leader string
	waitFor(t, 15*time.Second, "initial election", func() bool {
		leader = primary("")
		return leader != ""
	})

	budget := dp.Params{Epsilon: 1, Delta: 1e-5}
	rl, err := accountant.OpenRemoteLedger(c.members(), "auto", budget, groupRemote())
	if err != nil {
		t.Fatalf("OpenRemoteLedger: %v", err)
	}
	cost := dp.Params{Epsilon: 0.1, Delta: 1e-6}
	for i := 0; i < 2; i++ {
		if err := rl.Spend(fmt.Sprintf("pre-%d", i), cost); err != nil {
			t.Fatalf("spend before failover: %v", err)
		}
	}

	c.partition(leader)
	old := leader
	waitFor(t, 15*time.Second, "automatic failover", func() bool {
		leader = primary(old)
		return leader != ""
	})
	for i := 0; i < 2; i++ {
		if err := rl.Spend(fmt.Sprintf("post-%d", i), cost); err != nil {
			t.Fatalf("spend after failover: %v", err)
		}
	}
	c.heal()
	ops, err := c.group(leader).Ops("auto")
	if err != nil {
		t.Fatalf("Ops: %v", err)
	}
	if len(ops) != 4 {
		t.Fatalf("trail has %d ops, want 4", len(ops))
	}
}

// TestGroupReadyz drives the readiness probe over HTTP: a primary with
// a committed log and a follower with a live leader answer 200; a
// member cut off from the group decays to 503.
func TestGroupReadyz(t *testing.T) {
	c := newCluster(t, 3, -1)
	if err := c.group("n1").Promote(); err != nil {
		t.Fatalf("promoting n1: %v", err)
	}
	readyz := func(id string) int {
		resp, err := http.Get(c.peers[id] + "/readyz")
		if err != nil {
			t.Fatalf("GET readyz %s: %v", id, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	waitFor(t, 5*time.Second, "all members ready", func() bool {
		for _, id := range c.ids {
			if readyz(id) != http.StatusOK {
				return false
			}
		}
		return true
	})
	// Cut n3 off: with no leader contact its readiness must decay (the
	// staleness window is max(3*heartbeat, 1s)).
	c.partition("n3")
	waitFor(t, 10*time.Second, "partitioned follower turning unready", func() bool {
		return readyz("n3") == http.StatusServiceUnavailable
	})
	c.heal()
	waitFor(t, 10*time.Second, "healed follower turning ready", func() bool {
		return readyz("n3") == http.StatusOK
	})
}
