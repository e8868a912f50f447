// The sequencer group.
//
// One primary accepts spends and synchronously streams checksummed log
// frames to its followers, acking a spend only after a majority of the
// group (itself included) has fsynced the frame — so any surviving
// majority reconstructs the exact spent/ops state. A group without
// peers is a majority of one: it commits once its own write returns.
// The protocol is a deliberately small raft subset, shaped by what a
// privacy ledger needs:
//
//   - The epoch token carries a monotonic TERM. A node durably persists
//     a term before acting at it; a persisted term write IS that node's
//     one vote for the term, so at most one candidate can win any term
//     and no separate votedFor state is needed. Stale primaries get 409
//     epoch-fenced on their next replication append — the same fencing
//     machinery (and wire code) that fences stale clients.
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
//     per key; the log is the durable truth.
//   - The op-ID dedup index spans the ENTIRE local log, committed or
//     not: a spend whose replication round failed stays in the log, and
//     its retry must drive THAT entry to commit, never append a twin.
//
// A primary that cannot reach a quorum refuses spends with ErrNoQuorum
// (HTTP 503 — retryable; the multi-address client walks on). All
// decide→append→replicate→commit→apply steps run under one mutex, and
// spends are group-committed through it: a spender queues its call, and
// one spender at a time leads a batch — it decides every queued call in
// order against the settled state, writes the batch with one fsync and
// sends it in one replication round. A batch holds at most one new
// entry per key, so each spend's result reads the state exactly as of
// its own op.
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

// Group is one sequencer member. It serves the client wire protocol
// when primary and refuses client traffic (ErrNotPrimary) otherwise.
// Safe for concurrent use.
type Group struct {
	opts    Options
	self    string
	peerIDs []string // sorted, self excluded
	id      uint64   // the directory's random identity, half of the epoch token

	// qmu guards the spend queue, the lead and every queued call's done
	// and asleep flags. A spender queues without waiting for mu, which
	// the batch in flight holds. One spender at a time leads, running
	// batches until its own call is decided; the others sleep until the
	// batch that decides their call wakes them, or until a leader leaves
	// with theirs first in line.
	qmu     sync.Mutex
	leading bool
	queue   []*spendCall

	mu          sync.Mutex
	closed      bool
	failed      error
	role        string
	term        uint64
	epoch       string // the token for (id, term)
	leader      string // "" while unknown
	log         *groupLog
	commit      uint64
	applied     uint64
	state       map[string]*accountant.MemLedger
	opIndex     map[string]uint64 // key+"\x00"+opID → log index (whole log)
	waiting     []*spendCall      // drained from queue, in order, not yet decided
	batch       []groupEntry      // the batch being decided
	decided     []*spendCall      // the calls the batch decides
	nextIndex   map[string]uint64
	matchIndex  map[string]uint64
	lastContact time.Time
	deadline    time.Time // next election bid (follower, auto mode)
	rng         *rand.Rand

	stopc chan struct{}
	done  sync.WaitGroup
}

// spendCall is one queued Spend: its arguments, then its outcome. index
// is the log index of its entry once one is written; res and err are
// set under mu, and done, under qmu, publishes them. wake is a
// semaphore held by the spender: asleep marks a Lock waiting on it,
// which exactly one Unlock releases.
type spendCall struct {
	key, epoch, opID, label string
	cost                    dp.Params

	index  uint64
	res    SpendResult
	err    error
	done   bool
	asleep bool
	wake   sync.Mutex
}

// New opens (creating if needed) the member's durable state: the log
// and the term file that also holds the directory's identity. A member
// of a group with Peers boots as a follower and starts its replication
// loop; the first primary emerges from an election (automatic, or via
// Promote). Without Peers the member is the whole group and promotes
// itself before New returns: its vote round is its own durable term
// write, so every open bumps the term and fences the tokens of the run
// before. A directory an older build's single-node sequencer wrote is
// refused (ErrLedgerCorrupt), with every file in it left as it was.
func New(opts Options) (*Group, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := refuseLegacyDir(opts.Dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledgerd: ledger dir: %w", err)
	}
	log, err := openGroupLog(opts.Dir, accountant.DurableOptions{
		Fsync:         opts.Fsync,
		FsyncInterval: opts.FsyncInterval,
		OpenWriter:    opts.OpenWriter,
	})
	if err != nil {
		return nil, err
	}
	g, err := newGroup(opts, log)
	if err != nil {
		log.close()
		return nil, err
	}
	if len(opts.Peers) == 0 {
		return g, nil
	}
	g.resetElectionLocked()
	g.done.Add(1)
	go g.run()
	return g, nil
}

// newGroup builds the member over its opened log: the term and identity
// read (and, the first time, drawn and stored), the dedup index
// rebuilt, and a member without peers promoted.
func newGroup(opts Options, log *groupLog) (*Group, error) {
	id, term, err := loadTerm(opts.Dir)
	if err != nil {
		return nil, err
	}
	var seed [16]byte
	if _, err := cryptorand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("ledgerd: drawing randomness: %w", err)
	}
	g := &Group{
		opts:       opts,
		self:       opts.NodeID,
		id:         id,
		role:       roleFollower,
		log:        log,
		state:      make(map[string]*accountant.MemLedger),
		opIndex:    make(map[string]uint64),
		nextIndex:  make(map[string]uint64),
		matchIndex: make(map[string]uint64),
		rng:        rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[8:])))),
		stopc:      make(chan struct{}),
	}
	g.setTermLocked(term)
	if id == 0 {
		// A fresh directory (or one from a build whose term file held no
		// identity) draws its identity once, before any token is issued.
		g.id = binary.LittleEndian.Uint64(seed[:8])
		if err := g.storeTermLocked(term); err != nil {
			return nil, err
		}
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
	if len(opts.Peers) == 0 {
		if err := g.promoteLocked(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// quorum is the majority size, this node included.
func (g *Group) quorum() int { return (len(g.opts.Peers) / 2) + 1 }

// Epoch returns the client-visible fencing token: the directory's
// identity and the monotonic term.
func (g *Group) Epoch() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// setTermLocked adopts a term in memory, with the token it issues.
func (g *Group) setTermLocked(term uint64) {
	g.term = term
	g.epoch = epochToken(g.id, term)
}

// storeTermLocked durably persists term, then adopts it. A failed write
// latches the member.
func (g *Group) storeTermLocked(term uint64) error {
	if err := storeTerm(g.opts.Dir, g.id, term); err != nil {
		g.failLocked(err)
		return g.failed
	}
	g.setTermLocked(term)
	return nil
}

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
	if term > g.term {
		if err := g.storeTermLocked(term); err != nil {
			return err
		}
	}
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

// appendLocalLocked writes locally originated entries with one fsync
// and indexes them.
func (g *Group) appendLocalLocked(es ...groupEntry) error {
	if err := g.log.appendEntries(es...); err != nil {
		g.failLocked(fmt.Errorf("appending entries %d..%d: %v", es[0].Index, es[len(es)-1].Index, err))
		return g.failed
	}
	for _, e := range es {
		g.indexEntryLocked(e)
	}
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
		count := 1 // self: appendEntries wrote before returning
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
			g.state[e.Key] = mem
		case entrySpend:
			mem, ok := g.state[e.Key]
			if !ok {
				g.failLocked(fmt.Errorf("entry %d spends unattached key %q", i, e.Key))
				return
			}
			if err := mem.Spend(e.Label, e.Cost); err != nil {
				g.failLocked(fmt.Errorf("entry %d diverged: %v", i, err))
				return
			}
			if got := uint64(mem.OpCount()); got != e.Seq {
				g.failLocked(fmt.Errorf("entry %d applied as op %d, logged as %d", i, got, e.Seq))
				return
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

// Attach opens key under budget via an attach entry and returns the
// authoritative state plus the epoch token every later spend must
// carry. Attach is idempotent; attaching a key the log holds under a
// different budget fails with accountant.ErrBudgetMismatch — raising a
// partially spent budget would mint privacy out of thin air. Only the
// primary serves it.
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
	if mem, ok := g.state[key]; ok {
		if mem.Budget() != budget {
			return AttachResult{}, fmt.Errorf("%w: key %q is open with budget %s, attach requested %s",
				accountant.ErrBudgetMismatch, key, mem.Budget(), budget)
		}
		return g.attachResultLocked(mem), nil
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

func (g *Group) attachResultLocked(mem *accountant.MemLedger) AttachResult {
	return AttachResult{
		Epoch:     g.epoch,
		Budget:    mem.Budget(),
		Spent:     mem.Spent(),
		Remaining: mem.Remaining(),
		OpCount:   mem.OpCount(),
	}
}

// Spend admits one operation exactly once across the whole group: the
// spend entry is written locally AND fsynced on a majority before the
// ack, the epoch must match, and op-ID dedup spans the entire log so a
// retry across failover converges on the recorded outcome. Concurrent
// spends share a batch (see commitBatchLocked).
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
	c := &spendCall{key: key, epoch: epoch, opID: opID, label: label, cost: cost}
	c.wake.Lock()
	g.qmu.Lock()
	g.queue = append(g.queue, c)
	for !c.done {
		if g.leading {
			c.asleep = true
			g.qmu.Unlock()
			c.wake.Lock()
			g.qmu.Lock()
			continue
		}
		g.leading = true
		g.qmu.Unlock()
		for led := false; !led; {
			g.mu.Lock()
			led = g.commitBatchLocked(c)
			g.mu.Unlock()
		}
		g.qmu.Lock()
	}
	g.qmu.Unlock()
	return c.res, c.err
}

// wakeLocked releases c's spender if it sleeps. Callers hold qmu.
func (c *spendCall) wakeLocked() {
	if c.asleep {
		c.asleep = false
		c.wake.Unlock()
	}
}

// commitBatchLocked is one batch, led by the spender of call self: it
// decides the queued spends in arrival order against the settled state,
// writes the new entries with one fsync, replicates them in one round
// and publishes every decided call's outcome. A call whose key already
// has a new entry in the batch waits, in order, for the next one. The
// first waiting call is always decided, so self is decided after
// finitely many batches. Then it reports true and gives up the lead:
// the lead is free for any spender to take, and the first undecided
// call's spender is woken to make sure one does.
func (g *Group) commitBatchLocked(self *spendCall) bool {
	g.qmu.Lock()
	g.waiting = append(g.waiting, g.queue...)
	clear(g.queue)
	g.queue = g.queue[:0]
	g.qmu.Unlock()

	err := g.writableLocked()
	if err == nil {
		err = g.settleLocked()
	}
	batch, decided := g.batch[:0], g.decided[:0]
	rest := g.waiting[:0]
	for _, c := range g.waiting {
		switch {
		case err != nil:
			c.err = err
		case batchHasKey(batch, c.key):
			rest = append(rest, c)
			continue
		default:
			batch = g.decideLocked(c, batch)
		}
		decided = append(decided, c)
	}
	clear(g.waiting[len(rest):])
	g.waiting = rest
	if len(batch) > 0 {
		err = g.appendLocalLocked(batch...)
		if err == nil {
			g.replicateLocked()
		}
	}
	for _, c := range decided {
		switch {
		case c.index == 0:
			// Decided without an entry: refused or replayed.
		case err != nil:
			c.err = err
		case c.index <= g.commit:
			c.res = spendResult(g.state[c.key], int(g.log.entry(c.index).Seq), false)
		default:
			// Written but not majority-acked: NOT admitted. The entry
			// stays in the log; a retry (same op ID) drives it to commit.
			c.err = g.writableLocked()
			if c.err == nil {
				c.err = fmt.Errorf("%w: op %s logged at %d awaiting majority fsync", ErrNoQuorum, c.opID, c.index)
			}
		}
	}
	g.qmu.Lock()
	for _, c := range decided {
		c.done = true
		c.wakeLocked()
	}
	led := self.done
	if led {
		g.leading = false
		if len(g.waiting) > 0 {
			g.waiting[0].wakeLocked()
		} else if len(g.queue) > 0 {
			g.queue[0].wakeLocked()
		}
	}
	g.qmu.Unlock()
	clear(decided)
	g.batch, g.decided = batch[:0], decided[:0]
	return led
}

func batchHasKey(batch []groupEntry, key string) bool {
	for i := range batch {
		if batch[i].Key == key {
			return true
		}
	}
	return false
}

// decideLocked decides one spend against the settled state: an error
// or a replayed outcome, or a new entry appended to batch (its index
// recorded in c.index).
func (g *Group) decideLocked(c *spendCall, batch []groupEntry) []groupEntry {
	if c.epoch != g.epoch {
		c.err = fmt.Errorf("%w (request %q, live %q)", ErrEpochFenced, c.epoch, g.epoch)
		return batch
	}
	mem, ok := g.state[c.key]
	// Whole-log dedup. The log is settled (committed and applied), so a
	// hit is always resolvable to its recorded outcome.
	if idx, hit := g.opIndex[opIndexKey(c.key, c.opID)]; hit {
		if !ok {
			g.failLocked(fmt.Errorf("dedup hit for %q/%s but key not applied", c.key, c.opID))
			c.err = g.failed
			return batch
		}
		c.res = spendResult(mem, int(g.log.entry(idx).Seq), true)
		return batch
	}
	if !ok {
		c.err = fmt.Errorf("%w: %q", ErrNotAttached, c.key)
		return batch
	}
	if err := mem.Check(c.cost); err != nil {
		c.err = fmt.Errorf("%w (label %q)", err, c.label)
		return batch
	}
	c.index = g.log.len() + uint64(len(batch)) + 1
	return append(batch, groupEntry{
		Index: c.index,
		Term:  g.term,
		Kind:  entrySpend,
		Key:   c.key,
		Seq:   uint64(mem.OpCount()) + 1,
		Cost:  c.cost,
		Label: encodeLabel(c.opID, c.label),
	})
}

func spendResult(mem *accountant.MemLedger, seq int, replayed bool) SpendResult {
	return SpendResult{
		Seq:       seq,
		Replayed:  replayed,
		Spent:     mem.Spent(),
		Remaining: mem.Remaining(),
		OpCount:   mem.OpCount(),
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
	mem, ok := g.state[key]
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrNotAttached, key)
	}
	return Status{
		Key:       key,
		Epoch:     g.epoch,
		Budget:    mem.Budget(),
		Spent:     mem.Spent(),
		Remaining: mem.Remaining(),
		OpCount:   mem.OpCount(),
		Durable: accountant.DurableStatus{
			Path:        g.log.path,
			Policy:      string(g.opts.Fsync),
			WALRecords:  int(g.log.len()),
			WALBytes:    g.log.file.Size(),
			ReplayedOps: int(g.applied),
			Unsynced:    g.log.file.Unsynced(),
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
	mem, ok := g.state[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotAttached, key)
	}
	ops := mem.Ops()
	for i := range ops {
		if _, label, ok := decodeLabel(ops[i].Label); ok {
			ops[i].Label = label
		}
	}
	return ops, nil
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
// index and term (dense indexes, terms never falling and never above
// the sender's), fsync the batch, and advance commit/apply — no further
// than the batch's last entry, the one position the sender vouched for.
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
	idx, prevTerm := req.PrevIndex, g.log.termAt(req.PrevIndex)
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
		if e.Term < prevTerm || e.Term > req.Term {
			return AppendResponse{}, fmt.Errorf("%w: replicated entry %d at term %d out of order (previous term %d, sender term %d)",
				ErrGroupLogCorrupt, idx, e.Term, prevTerm, req.Term)
		}
		prevTerm = e.Term
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
		entries = append(entries, e)
	}
	if len(entries) > 0 {
		if err := g.appendLocalLocked(entries...); err != nil {
			return AppendResponse{}, err
		}
	}
	if c := min(req.Commit, idx); c > g.commit {
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
	if err := g.storeTermLocked(newTerm); err != nil {
		return err
	}
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
		Epoch:   g.epoch,
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
