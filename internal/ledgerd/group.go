// Group mode: the quorum-replicated sequencer.
//
// One primary accepts spends and synchronously streams checksummed WAL
// frames to its followers, acking a spend only after a majority of the
// group (itself included) has fsynced the frame — so any surviving
// majority reconstructs the exact spent/ops state. The protocol is a
// deliberately small raft subset, shaped by what a privacy ledger
// needs:
//
//   - The single-node epoch token generalizes to a monotonic TERM. A
//     node durably persists a term before acting at it; a persisted
//     term write IS that node's one vote for the term, so at most one
//     candidate can win any term and no separate votedFor state is
//     needed. Stale primaries get 409 epoch-fenced on their next
//     replication append — the same fencing machinery (and wire code)
//     the single-node sequencer uses against stale clients.
//   - A follower promotes only after reading a majority's durable
//     term + log position and durably writing a higher term to a
//     majority (the vote round). The raft up-to-date check — compare
//     (lastLogTerm, logLen) lexicographically — guarantees the winner
//     holds every committed entry.
//   - A new primary appends a no-op BARRIER entry at its term and
//     admits nothing until its whole log (barrier included) is
//     majority-committed: committing an old-term entry by counting
//     replicas directly is the classic raft Figure-8 unsafety.
//   - Entries are applied only once committed, so log truncation (the
//     conflict rule) only ever discards unapplied entries and no
//     rollback path exists. The applied state is an in-memory ledger
//     per key plus the op-ID dedup set; the replicated log is the
//     durable truth, exactly as the WAL is for a DurableLedger.
//   - The op-ID dedup index spans the ENTIRE local log, committed or
//     not: a spend whose replication round failed stays in the log, and
//     its retry must drive THAT entry to commit, never append a twin.
//
// A primary that cannot reach a quorum refuses spends with ErrNoQuorum
// (HTTP 503 — retryable; the multi-address client walks on). All
// decide→append→replicate→commit→apply steps run under one mutex:
// correctness first, and the sequencer's throughput ceiling is the
// majority fsync anyway.
package ledgerd

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/accountant"
	"repro/internal/dp"
)

// Group-mode errors; the HTTP layer maps them onto wire codes.
var (
	// ErrNotPrimary refuses client operations sent to a non-primary
	// member; the multi-address client walks the member list on it.
	ErrNotPrimary = errors.New("ledgerd: not the group primary")
	// ErrNoQuorum reports that the primary could not majority-commit the
	// operation. The op may sit in the log awaiting quorum: it is NOT
	// admitted, but a retry under the same op ID will converge on the
	// recorded outcome rather than double-charge.
	ErrNoQuorum = errors.New("ledgerd: no quorum")
)

// Roles of a group member.
const (
	roleFollower = "follower"
	rolePrimary  = "primary"
)

// GroupOptions configures one group member.
type GroupOptions struct {
	// NodeID names this member; Peers maps every member ID (this node
	// included) to its base address.
	NodeID string
	Peers  map[string]string
	// Dir holds the member's replicated log and durable term file.
	Dir string
	// HeartbeatEvery paces primary→follower replication pings
	// (default 100ms). Heartbeats also push commit indexes, so they are
	// always on.
	HeartbeatEvery time.Duration
	// ElectionTimeout is the base follower patience before bidding for
	// leadership; the live deadline is randomized in [T, 2T) to avoid
	// split votes (default 1s). Negative disables automatic elections —
	// promotion then happens only via Promote (deterministic tests).
	ElectionTimeout time.Duration
	// RPCTimeout bounds each peer round trip (default 1s).
	RPCTimeout time.Duration
	// Transport carries replication traffic; nil selects HTTP. Tests
	// wrap it in FaultTransport to drop/delay/partition the stream.
	Transport GroupTransport
	// OpenWriter is the fault-injection seam for the group log's file
	// writes (tests only), mirroring accountant.DurableOptions.
	OpenWriter func(path string) (accountant.WriteSyncer, error)
	// Logf, when set, receives group life-cycle events (promotions,
	// fencings, step-downs).
	Logf func(format string, args ...any)
}

func (o GroupOptions) withDefaults() GroupOptions {
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 100 * time.Millisecond
	}
	if o.ElectionTimeout == 0 {
		o.ElectionTimeout = time.Second
	}
	if o.RPCTimeout <= 0 {
		o.RPCTimeout = time.Second
	}
	if o.Transport == nil {
		o.Transport = &HTTPGroupTransport{}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// keyState is one budget key's applied state: the in-memory ledger
// rebuilt from the committed log prefix plus its op-ID→seq dedup map.
type keyState struct {
	mem *accountant.MemLedger
	ops map[string]int
}

// Group is one member of a replicated sequencer group. It serves the
// same client wire protocol as the single-node Service when primary and
// refuses client traffic (ErrNotPrimary) otherwise. Safe for concurrent
// use.
type Group struct {
	opts    GroupOptions
	self    string
	peerIDs []string // sorted, self excluded

	mu          sync.Mutex
	closed      bool
	failed      error
	role        string
	term        uint64
	leader      string // "" while unknown
	log         *groupLog
	commit      uint64
	applied     uint64
	state       map[string]*keyState
	opIndex     map[string]uint64 // key+"\x00"+opID → log index (whole log)
	nextIndex   map[string]uint64
	matchIndex  map[string]uint64
	lastContact time.Time
	deadline    time.Time // next election bid (follower, auto mode)
	rng         *rand.Rand

	stopc chan struct{}
	done  sync.WaitGroup
}

// NewGroup opens (creating if needed) the member's durable state and
// starts its replication loop. Every member boots as a follower; the
// first primary emerges from an election (automatic, or via Promote).
func NewGroup(opts GroupOptions) (*Group, error) {
	opts = opts.withDefaults()
	if opts.NodeID == "" {
		return nil, errors.New("ledgerd: GroupOptions.NodeID is required")
	}
	if opts.Dir == "" {
		return nil, errors.New("ledgerd: GroupOptions.Dir is required")
	}
	if _, ok := opts.Peers[opts.NodeID]; !ok {
		return nil, fmt.Errorf("ledgerd: GroupOptions.Peers must include this node (%q)", opts.NodeID)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledgerd: group dir: %w", err)
	}
	term, err := loadTerm(opts.Dir)
	if err != nil {
		return nil, err
	}
	log, err := openGroupLog(opts.Dir, opts.OpenWriter)
	if err != nil {
		return nil, err
	}
	var seed [8]byte
	if _, err := cryptorand.Read(seed[:]); err != nil {
		log.close()
		return nil, fmt.Errorf("ledgerd: seeding election jitter: %w", err)
	}
	g := &Group{
		opts:       opts,
		self:       opts.NodeID,
		role:       roleFollower,
		term:       term,
		log:        log,
		state:      make(map[string]*keyState),
		opIndex:    make(map[string]uint64),
		nextIndex:  make(map[string]uint64),
		matchIndex: make(map[string]uint64),
		rng:        rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:])))),
		stopc:      make(chan struct{}),
	}
	for id := range opts.Peers {
		if id != g.self {
			g.peerIDs = append(g.peerIDs, id)
		}
	}
	sort.Strings(g.peerIDs)
	// Rebuild the whole-log dedup index. Nothing is APPLIED yet: a
	// restarted member does not know which suffix of its log committed,
	// and applies only once a primary tells it (or it wins an election
	// and commits its whole log through a barrier).
	g.rebuildOpIndexLocked()
	g.resetElectionLocked()
	g.done.Add(1)
	go g.run()
	return g, nil
}

// quorum is the majority size, this node included.
func (g *Group) quorum() int { return (len(g.opts.Peers) / 2) + 1 }

// Epoch returns the client-visible fencing token: the monotonic term.
func (g *Group) Epoch() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epochLocked()
}

func (g *Group) epochLocked() string { return fmt.Sprintf("term:%d", g.term) }

func opIndexKey(key, opID string) string { return key + "\x00" + opID }

func (g *Group) rebuildOpIndexLocked() {
	clear(g.opIndex)
	for i := uint64(1); i <= g.log.len(); i++ {
		g.indexEntryLocked(g.log.entry(i))
	}
}

func (g *Group) indexEntryLocked(e groupEntry) {
	if e.Kind != entrySpend {
		return
	}
	if opID, _, ok := decodeLabel(e.Label); ok {
		g.opIndex[opIndexKey(e.Key, opID)] = e.Index
	}
}

// failLocked latches the member fail-closed: a durable-log fault or a
// protocol invariant violation must stop admissions, never corrupt the
// budget. The wrapped ErrLedgerFailed maps to HTTP 500 like any other
// latched ledger.
func (g *Group) failLocked(err error) {
	if g.failed == nil {
		g.failed = fmt.Errorf("%w: group member %s: %v", accountant.ErrLedgerFailed, g.self, err)
		g.opts.Logf("ledgerd[%s]: LATCHED fail-closed: %v", g.self, err)
	}
}

func (g *Group) resetElectionLocked() {
	et := g.opts.ElectionTimeout
	if et <= 0 {
		et = time.Second
	}
	g.deadline = time.Now().Add(et + time.Duration(g.rng.Int63n(int64(et))))
}

func (g *Group) stepDownLocked(leader string) {
	if g.role != roleFollower {
		g.opts.Logf("ledgerd[%s]: stepping down at term %d (leader now %q)", g.self, g.term, leader)
	}
	g.role = roleFollower
	g.leader = leader
}

// adoptTermLocked durably persists a higher term and steps down.
func (g *Group) adoptTermLocked(term uint64, leader string) error {
	if term <= g.term {
		g.stepDownLocked(leader)
		return nil
	}
	if err := storeTerm(g.opts.Dir, term); err != nil {
		g.failLocked(err)
		return g.failed
	}
	g.term = term
	g.stepDownLocked(leader)
	return nil
}

// run is the background pacemaker: heartbeat replication while primary,
// election bids while a leaderless follower (auto mode only).
func (g *Group) run() {
	defer g.done.Done()
	t := time.NewTicker(g.opts.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-g.stopc:
			return
		case <-t.C:
		}
		g.mu.Lock()
		switch {
		case g.closed || g.failed != nil:
			g.mu.Unlock()
			return
		case g.role == rolePrimary:
			g.replicateLocked()
		case g.opts.ElectionTimeout > 0 && time.Now().After(g.deadline):
			if err := g.promoteLocked(); err != nil {
				g.resetElectionLocked()
			}
		}
		g.mu.Unlock()
	}
}

// writableLocked gates client operations: open, healthy, primary.
func (g *Group) writableLocked() error {
	if g.closed {
		return ErrClosed
	}
	if g.failed != nil {
		return g.failed
	}
	if g.role != rolePrimary {
		if g.leader != "" {
			return fmt.Errorf("%w (leader: %s)", ErrNotPrimary, g.leader)
		}
		return ErrNotPrimary
	}
	return nil
}

// settleLocked drives any uncommitted log suffix to commit before a new
// decision is made against the applied state. This single gate closes
// two holes at once: the promotion barrier (a new primary's old-term
// suffix must commit before it admits anything — Figure 8), and budget
// reservation (an earlier spend stuck awaiting quorum holds budget the
// applied state does not show yet; deciding a new spend before it
// resolves could over-admit).
func (g *Group) settleLocked() error {
	if g.log.len() == g.commit {
		return nil
	}
	g.replicateLocked()
	if g.role != rolePrimary {
		return g.writableLocked()
	}
	if g.log.len() != g.commit {
		return fmt.Errorf("%w: %d log entries awaiting majority fsync", ErrNoQuorum, g.log.len()-g.commit)
	}
	return nil
}

// appendLocalLocked encodes, fsyncs and indexes one locally originated
// entry.
func (g *Group) appendLocalLocked(e groupEntry) error {
	if _, err := g.log.appendEntry(e); err != nil {
		g.failLocked(fmt.Errorf("appending entry %d: %v", e.Index, err))
		return g.failed
	}
	g.indexEntryLocked(e)
	return nil
}

// buildAppendLocked assembles the replication batch for a peer whose
// next expected entry is ni. Batches are bounded; a long catch-up takes
// several rounds.
func (g *Group) buildAppendLocked(ni uint64) (AppendRequest, uint64) {
	const maxBatch = 512
	req := AppendRequest{
		Term:      g.term,
		Leader:    g.self,
		PrevIndex: ni - 1,
		PrevTerm:  g.log.termAt(ni - 1),
		Commit:    g.commit,
	}
	last := g.log.len()
	if last >= ni+maxBatch {
		last = ni + maxBatch - 1
	}
	for i := ni; i <= last; i++ {
		req.Entries = append(req.Entries, g.log.frame(i))
	}
	if last < ni {
		last = ni - 1 // pure heartbeat
	}
	return req, last
}

// replicateLocked pushes the log and commit index to every peer (a few
// backtracking rounds at most) and advances the commit index by
// majority match. Called with the group mutex held; the peer RPCs run
// in parallel under RPCTimeout while the mutex stays held — the whole
// pipeline is deliberately serialized.
func (g *Group) replicateLocked() {
	for round := 0; round < 3 && g.role == rolePrimary && g.failed == nil; round++ {
		if !g.replicateRoundLocked() {
			return
		}
	}
}

// replicateRoundLocked runs one parallel append fan-out. It returns
// true when another immediate round could make progress (a peer asked
// for an earlier or later batch).
func (g *Group) replicateRoundLocked() bool {
	type outcome struct {
		peer string
		sent uint64
		res  AppendResponse
		err  error
	}
	results := make(chan outcome, len(g.peerIDs))
	for _, p := range g.peerIDs {
		ni := g.nextIndex[p]
		if ni == 0 {
			ni = g.log.len() + 1
			g.nextIndex[p] = ni
		}
		req, sent := g.buildAppendLocked(ni)
		addr := g.opts.Peers[p]
		go func(peer, addr string, req AppendRequest, sent uint64) {
			ctx, cancel := context.WithTimeout(context.Background(), g.opts.RPCTimeout)
			defer cancel()
			res, err := g.opts.Transport.Append(ctx, addr, req)
			results <- outcome{peer: peer, sent: sent, res: res, err: err}
		}(p, addr, req, sent)
	}
	again := false
	for range g.peerIDs {
		o := <-results
		switch {
		case o.err != nil:
			var fe *fencedError
			if errors.As(o.err, &fe) {
				// A peer holds a higher durable term: this primary is stale.
				// Adopt and stop admitting — the fence the ISSUE promises.
				g.opts.Logf("ledgerd[%s]: fenced by %s at term %d (was %d)", g.self, o.peer, fe.term, g.term)
				_ = g.adoptTermLocked(fe.term, "")
				return false
			}
			// Unreachable: the heartbeat loop retries.
		case o.res.OK:
			if o.sent > g.matchIndex[o.peer] {
				g.matchIndex[o.peer] = o.sent
			}
			g.nextIndex[o.peer] = o.sent + 1
			if g.log.len() > o.sent {
				again = true // batch was capped; keep streaming
			}
		default:
			// Log-consistency refusal: back up toward the peer's hint.
			ni := g.nextIndex[o.peer]
			hint := o.res.LogLen + 1
			if hint < ni {
				ni = hint
			} else if ni > 1 {
				ni--
			}
			if ni < 1 {
				ni = 1
			}
			g.nextIndex[o.peer] = ni
			again = true
		}
	}
	g.advanceCommitLocked()
	return again
}

// advanceCommitLocked commits the highest current-term index a majority
// has fsynced, then applies it. Old-term entries are never counted
// directly (Figure 8); they commit transitively under the barrier.
func (g *Group) advanceCommitLocked() {
	for n := g.log.len(); n > g.commit; n-- {
		if g.log.termAt(n) != g.term {
			return
		}
		count := 1 // self: appendEntry fsynced before returning
		for _, p := range g.peerIDs {
			if g.matchIndex[p] >= n {
				count++
			}
		}
		if count >= g.quorum() {
			g.commit = n
			g.applyToLocked(n)
			return
		}
	}
}

// applyToLocked applies committed entries (applied, to] to the key
// state. Any application failure is an invariant violation — the
// committed log IS the truth — and latches the member.
func (g *Group) applyToLocked(to uint64) {
	for i := g.applied + 1; i <= to && g.failed == nil; i++ {
		e := g.log.entry(i)
		switch e.Kind {
		case entryNoop:
		case entryAttach:
			if _, ok := g.state[e.Key]; ok {
				break // duplicate attach: deterministic no-op
			}
			mem, err := accountant.NewLedger(e.Budget)
			if err != nil {
				g.failLocked(fmt.Errorf("applying attach %d (%q): %v", i, e.Key, err))
				return
			}
			g.state[e.Key] = &keyState{mem: mem, ops: make(map[string]int)}
		case entrySpend:
			ks, ok := g.state[e.Key]
			if !ok {
				g.failLocked(fmt.Errorf("entry %d spends unattached key %q", i, e.Key))
				return
			}
			if err := ks.mem.Spend(e.Label, e.Cost); err != nil {
				g.failLocked(fmt.Errorf("entry %d diverged: %v", i, err))
				return
			}
			if got := uint64(ks.mem.OpCount()); got != e.Seq {
				g.failLocked(fmt.Errorf("entry %d applied as op %d, logged as %d", i, got, e.Seq))
				return
			}
			if opID, _, ok := decodeLabel(e.Label); ok {
				ks.ops[opID] = int(e.Seq)
			}
		}
		g.applied = i
	}
}

// truncateFromLocked discards an uncommitted conflicting suffix.
func (g *Group) truncateFromLocked(idx uint64) error {
	if err := g.log.truncateFrom(idx); err != nil {
		g.failLocked(fmt.Errorf("truncating conflict at %d: %v", idx, err))
		return g.failed
	}
	g.rebuildOpIndexLocked()
	return nil
}

// Attach opens (or re-opens) key under budget via a replicated attach
// entry. Idempotent; a budget mismatch is refused exactly as in
// single-node mode. Only the primary serves it.
func (g *Group) Attach(key string, budget dp.Params) (AttachResult, error) {
	if !ValidKey(key) {
		return AttachResult{}, fmt.Errorf("%w: %q", ErrBadKey, key)
	}
	if err := budget.Validate(); err != nil {
		return AttachResult{}, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.writableLocked(); err != nil {
		return AttachResult{}, err
	}
	if err := g.settleLocked(); err != nil {
		return AttachResult{}, err
	}
	if ks, ok := g.state[key]; ok {
		if ks.mem.Budget() != budget {
			return AttachResult{}, fmt.Errorf("%w: key %q is open with budget %s, attach requested %s",
				accountant.ErrBudgetMismatch, key, ks.mem.Budget(), budget)
		}
		return g.attachResultLocked(ks), nil
	}
	e := groupEntry{Index: g.log.len() + 1, Term: g.term, Kind: entryAttach, Key: key, Budget: budget}
	if err := g.appendLocalLocked(e); err != nil {
		return AttachResult{}, err
	}
	g.replicateLocked()
	if g.commit < e.Index {
		if err := g.writableLocked(); err != nil {
			return AttachResult{}, err
		}
		return AttachResult{}, fmt.Errorf("%w: attach of %q logged at %d awaiting majority", ErrNoQuorum, key, e.Index)
	}
	return g.attachResultLocked(g.state[key]), nil
}

func (g *Group) attachResultLocked(ks *keyState) AttachResult {
	return AttachResult{
		Epoch:     g.epochLocked(),
		Budget:    ks.mem.Budget(),
		Spent:     ks.mem.Spent(),
		Remaining: ks.mem.Remaining(),
		OpCount:   ks.mem.OpCount(),
	}
}

// Spend admits one operation exactly once across the whole group: the
// spend entry is fsynced locally AND on a majority before the ack, the
// epoch (term) must match, and op-ID dedup spans the entire log so a
// retry across failover converges on the recorded outcome.
func (g *Group) Spend(key, epoch, opID, label string, cost dp.Params) (SpendResult, error) {
	if !ValidKey(key) {
		return SpendResult{}, fmt.Errorf("%w: %q", ErrBadKey, key)
	}
	if !validOpID(opID) {
		return SpendResult{}, fmt.Errorf("%w: %q", ErrBadOpID, opID)
	}
	if err := cost.Validate(); err != nil {
		return SpendResult{}, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.writableLocked(); err != nil {
		return SpendResult{}, err
	}
	if err := g.settleLocked(); err != nil {
		return SpendResult{}, err
	}
	if epoch != g.epochLocked() {
		return SpendResult{}, fmt.Errorf("%w (request %q, live %q)", ErrEpochFenced, epoch, g.epochLocked())
	}
	// Whole-log dedup. After settle the log is fully committed and
	// applied, so a hit is always resolvable to its recorded outcome.
	if _, ok := g.opIndex[opIndexKey(key, opID)]; ok {
		ks := g.state[key]
		if ks == nil {
			g.failLocked(fmt.Errorf("dedup hit for %q/%s but key not applied", key, opID))
			return SpendResult{}, g.failed
		}
		return g.spendResultLocked(ks, ks.ops[opID], true), nil
	}
	ks, ok := g.state[key]
	if !ok {
		return SpendResult{}, fmt.Errorf("%w: %q", ErrNotAttached, key)
	}
	if err := ks.mem.Check(cost); err != nil {
		return SpendResult{}, fmt.Errorf("%w (label %q)", err, label)
	}
	e := groupEntry{
		Index: g.log.len() + 1,
		Term:  g.term,
		Kind:  entrySpend,
		Key:   key,
		Seq:   uint64(ks.mem.OpCount()) + 1,
		Cost:  cost,
		Label: encodeLabel(opID, label),
	}
	if err := g.appendLocalLocked(e); err != nil {
		return SpendResult{}, err
	}
	g.replicateLocked()
	if g.commit < e.Index {
		// Locally fsynced but not majority-acked: NOT admitted. The entry
		// stays in the log; a retry (same op ID) drives it to commit.
		if err := g.writableLocked(); err != nil {
			return SpendResult{}, err
		}
		return SpendResult{}, fmt.Errorf("%w: op %s logged at %d awaiting majority fsync", ErrNoQuorum, opID, e.Index)
	}
	return g.spendResultLocked(ks, int(e.Seq), false), nil
}

func (g *Group) spendResultLocked(ks *keyState, seq int, replayed bool) SpendResult {
	return SpendResult{
		Seq:       seq,
		Replayed:  replayed,
		Spent:     ks.mem.Spent(),
		Remaining: ks.mem.Remaining(),
		OpCount:   ks.mem.OpCount(),
	}
}

// Status reports one attached key's applied state. Primary only: a
// follower's applied state may trail the truth.
func (g *Group) Status(key string) (Status, error) {
	if !ValidKey(key) {
		return Status{}, fmt.Errorf("%w: %q", ErrBadKey, key)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.writableLocked(); err != nil {
		return Status{}, err
	}
	ks, ok := g.state[key]
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrNotAttached, key)
	}
	return Status{
		Key:       key,
		Epoch:     g.epochLocked(),
		Budget:    ks.mem.Budget(),
		Spent:     ks.mem.Spent(),
		Remaining: ks.mem.Remaining(),
		OpCount:   ks.mem.OpCount(),
		Durable: accountant.DurableStatus{
			Path:        g.log.path,
			Policy:      string(accountant.FsyncAlways),
			WALRecords:  int(g.log.len()),
			WALBytes:    g.log.file.Size(),
			ReplayedOps: int(g.applied),
		},
	}, nil
}

// Ops returns an attached key's audit trail (op-ID envelope stripped).
// Primary only.
func (g *Group) Ops(key string) ([]accountant.Op, error) {
	if !ValidKey(key) {
		return nil, fmt.Errorf("%w: %q", ErrBadKey, key)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := g.writableLocked(); err != nil {
		return nil, err
	}
	ks, ok := g.state[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotAttached, key)
	}
	ops := ks.mem.Ops()
	for i := range ops {
		if _, label, ok := decodeLabel(ops[i].Label); ok {
			ops[i].Label = label
		}
	}
	return ops, nil
}

// Keys lists the keys attached in the applied state.
func (g *Group) Keys() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.state))
	for k := range g.state {
		out = append(out, k)
	}
	return out
}

// Ready implements the readiness probe: a primary is ready once its
// whole log is majority-committed (it can admit spends NOW); a follower
// is ready while it has a live leader. Liveness (healthz) is always
// true for an open member — readiness is the load-balancer signal.
func (g *Group) Ready() (bool, string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case g.closed:
		return false, "closed"
	case g.failed != nil:
		return false, g.failed.Error()
	case g.role == rolePrimary:
		if g.commit == g.log.len() {
			return true, "primary"
		}
		return false, "primary awaiting quorum commit"
	default:
		stale := 3 * g.opts.HeartbeatEvery
		if stale < time.Second {
			stale = time.Second
		}
		if g.leader != "" && time.Since(g.lastContact) < stale {
			return true, "follower of " + g.leader
		}
		return false, "follower without live leader"
	}
}

// HandleAppend is the follower half of the replication stream: verify
// the sender's term (fencing stale primaries with ErrEpochFenced → 409
// epoch-fenced), check log consistency, verify each frame's checksum,
// fsync the batch, and advance commit/apply.
func (g *Group) HandleAppend(req AppendRequest) (AppendResponse, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return AppendResponse{}, ErrClosed
	}
	if g.failed != nil {
		return AppendResponse{}, g.failed
	}
	if req.Term < g.term {
		// The sender is a fenced ex-primary. The 409 body carries our
		// durable term so it can adopt it and stand down.
		return AppendResponse{}, &fencedError{term: g.term,
			msg: fmt.Sprintf("replication append from %s at term %d, durable term is %d",
				req.Leader, req.Term, g.term)}
	}
	if err := g.adoptTermLocked(req.Term, req.Leader); err != nil {
		return AppendResponse{}, err
	}
	g.leader = req.Leader
	g.lastContact = time.Now()
	g.resetElectionLocked()
	if req.PrevIndex > g.log.len() {
		return AppendResponse{OK: false, Term: g.term, LogLen: g.log.len()}, nil
	}
	if req.PrevIndex > 0 && g.log.termAt(req.PrevIndex) != req.PrevTerm {
		return AppendResponse{OK: false, Term: g.term, LogLen: req.PrevIndex - 1}, nil
	}
	idx := req.PrevIndex
	var frames [][]byte
	var entries []groupEntry
	for _, raw := range req.Entries {
		payload, n, ok := accountant.NextFrame(raw)
		if !ok || n != len(raw) {
			return AppendResponse{}, fmt.Errorf("%w: replicated frame failed checksum", ErrGroupLogCorrupt)
		}
		e, ok := decodeEntryPayload(payload)
		if !ok {
			return AppendResponse{}, fmt.Errorf("%w: replicated frame undecodable", ErrGroupLogCorrupt)
		}
		idx++
		if e.Index != idx {
			return AppendResponse{}, fmt.Errorf("%w: replicated batch index gap (%d at position %d)",
				ErrGroupLogCorrupt, e.Index, idx)
		}
		if idx <= g.log.len() {
			if g.log.termAt(idx) == e.Term {
				continue // already hold this entry
			}
			if idx <= g.commit {
				g.failLocked(fmt.Errorf("term-%d append contradicts committed entry %d", req.Term, idx))
				return AppendResponse{}, g.failed
			}
			if err := g.truncateFromLocked(idx); err != nil {
				return AppendResponse{}, err
			}
		}
		frames = append(frames, raw)
		entries = append(entries, e)
	}
	if err := g.log.appendFrames(frames, entries); err != nil {
		g.failLocked(fmt.Errorf("fsyncing replicated batch: %v", err))
		return AppendResponse{}, g.failed
	}
	for _, e := range entries {
		g.indexEntryLocked(e)
	}
	if c := min(req.Commit, g.log.len()); c > g.commit {
		g.commit = c
		g.applyToLocked(c)
		if g.failed != nil {
			return AppendResponse{}, g.failed
		}
	}
	return AppendResponse{OK: true, Term: g.term, LogLen: g.log.len()}, nil
}

// HandleVote is the voter half of promotion: grant (by durably
// persisting the candidate's term — the vote and the term write are the
// same fsync) iff the term is new to us and the candidate's log is at
// least as up to date as ours.
func (g *Group) HandleVote(req VoteRequest) (VoteResponse, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return VoteResponse{}, ErrClosed
	}
	if g.failed != nil {
		return VoteResponse{}, g.failed
	}
	if req.Term <= g.term {
		return VoteResponse{Granted: false, Term: g.term}, nil
	}
	upToDate := req.LastLogTerm > g.log.lastTerm() ||
		(req.LastLogTerm == g.log.lastTerm() && req.LogLen >= g.log.len())
	// Persist the higher term either way (it fences the old primary);
	// persisting on a refusal burns the term for every candidate, which
	// is safe — the up-to-date one simply bids the next term.
	if err := g.adoptTermLocked(req.Term, ""); err != nil {
		return VoteResponse{}, err
	}
	if !upToDate {
		return VoteResponse{Granted: false, Term: g.term}, nil
	}
	g.resetElectionLocked() // granted a vote: give the winner time to lead
	return VoteResponse{Granted: true, Term: g.term}, nil
}

// HandleState reports this member's durable position to a candidate.
func (g *Group) HandleState() (StateResponse, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return StateResponse{}, ErrClosed
	}
	return StateResponse{
		Node:        g.self,
		Term:        g.term,
		LastLogTerm: g.log.lastTerm(),
		LogLen:      g.log.len(),
		Commit:      g.commit,
		Role:        g.role,
		Leader:      g.leader,
	}, nil
}

// Promote runs one election bid now: read a majority's durable
// term+log position, pick a higher term, and durably write it to a
// majority (the vote round). On success this member is primary and has
// appended its barrier entry. Deterministic-failover tests and the
// operator runbook call this directly; auto mode calls it on election
// timeout.
func (g *Group) Promote() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrClosed
	}
	if g.failed != nil {
		return g.failed
	}
	if g.role == rolePrimary {
		return nil
	}
	return g.promoteLocked()
}

func (g *Group) promoteLocked() error {
	// Phase A: read a majority's durable term + log position.
	type peerState struct {
		res StateResponse
		err error
	}
	results := make(chan peerState, len(g.peerIDs))
	for _, p := range g.peerIDs {
		addr := g.opts.Peers[p]
		go func(addr string) {
			ctx, cancel := context.WithTimeout(context.Background(), g.opts.RPCTimeout)
			defer cancel()
			res, err := g.opts.Transport.State(ctx, addr)
			results <- peerState{res: res, err: err}
		}(addr)
	}
	reached := 1 // self
	maxTerm := g.term
	myLast, myLen := g.log.lastTerm(), g.log.len()
	for range g.peerIDs {
		ps := <-results
		if ps.err != nil {
			continue
		}
		reached++
		if ps.res.Term > maxTerm {
			maxTerm = ps.res.Term
		}
		if ps.res.LastLogTerm > myLast || (ps.res.LastLogTerm == myLast && ps.res.LogLen > myLen) {
			// A more up-to-date member exists and is reachable: it must
			// lead (it may hold committed entries we lack).
			return fmt.Errorf("%w: peer %s log (term %d, len %d) is ahead of ours (term %d, len %d)",
				ErrNotPrimary, ps.res.Node, ps.res.LastLogTerm, ps.res.LogLen, myLast, myLen)
		}
	}
	if reached < g.quorum() {
		return fmt.Errorf("%w: reached %d of %d members", ErrNoQuorum, reached, len(g.opts.Peers))
	}

	// Phase B: durably write a higher term to a majority. Our own write
	// is our self-vote.
	newTerm := maxTerm + 1
	if err := storeTerm(g.opts.Dir, newTerm); err != nil {
		g.failLocked(err)
		return g.failed
	}
	g.term = newTerm
	g.role = roleFollower
	g.leader = ""
	req := VoteRequest{Term: newTerm, Candidate: g.self, LastLogTerm: myLast, LogLen: myLen}
	votes := make(chan VoteResponse, len(g.peerIDs))
	for _, p := range g.peerIDs {
		addr := g.opts.Peers[p]
		go func(addr string) {
			ctx, cancel := context.WithTimeout(context.Background(), g.opts.RPCTimeout)
			defer cancel()
			res, err := g.opts.Transport.Vote(ctx, addr, req)
			if err != nil {
				res = VoteResponse{}
			}
			votes <- res
		}(addr)
	}
	granted := 1
	for range g.peerIDs {
		v := <-votes
		if v.Term > g.term {
			_ = g.adoptTermLocked(v.Term, "")
			return fmt.Errorf("%w: outbid at term %d", ErrNotPrimary, v.Term)
		}
		if v.Granted {
			granted++
		}
	}
	if granted < g.quorum() {
		return fmt.Errorf("%w: %d of %d votes at term %d", ErrNoQuorum, granted, len(g.opts.Peers), newTerm)
	}

	// Won: lead. Append the barrier no-op; nothing is admitted until the
	// whole log (barrier included) majority-commits via settleLocked.
	g.role = rolePrimary
	g.leader = g.self
	for _, p := range g.peerIDs {
		g.nextIndex[p] = g.log.len() + 1
		g.matchIndex[p] = 0
	}
	g.opts.Logf("ledgerd[%s]: promoted to primary at term %d (log len %d)", g.self, newTerm, g.log.len())
	barrier := groupEntry{Index: g.log.len() + 1, Term: newTerm, Kind: entryNoop}
	if err := g.appendLocalLocked(barrier); err != nil {
		return err
	}
	g.replicateLocked()
	return nil
}

// GroupStatus is the operator panel served at /v1/group/status.
type GroupStatus struct {
	Node    string            `json:"node"`
	Role    string            `json:"role"`
	Term    uint64            `json:"term"`
	Leader  string            `json:"leader,omitempty"`
	Epoch   string            `json:"epoch"`
	LogLen  uint64            `json:"log_len"`
	Commit  uint64            `json:"commit"`
	Applied uint64            `json:"applied"`
	Quorum  int               `json:"quorum"`
	Members map[string]string `json:"members"`
	Match   map[string]uint64 `json:"match,omitempty"` // primary only
	Keys    int               `json:"keys"`
	Err     string            `json:"error,omitempty"`
}

// GroupStatus reports the member's replication state.
func (g *Group) GroupStatus() GroupStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := GroupStatus{
		Node:    g.self,
		Role:    g.role,
		Term:    g.term,
		Leader:  g.leader,
		Epoch:   g.epochLocked(),
		LogLen:  g.log.len(),
		Commit:  g.commit,
		Applied: g.applied,
		Quorum:  g.quorum(),
		Members: g.opts.Peers,
		Keys:    len(g.state),
	}
	if g.role == rolePrimary {
		st.Match = make(map[string]uint64, len(g.peerIDs))
		for _, p := range g.peerIDs {
			st.Match[p] = g.matchIndex[p]
		}
	}
	if g.failed != nil {
		st.Err = g.failed.Error()
	}
	return st
}

// Close stops the replication loop and releases the durable state.
// Idempotent.
func (g *Group) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	close(g.stopc)
	g.mu.Unlock()
	g.done.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.log.close()
}
