// RemoteLedger: the client side of the shared privacy-ledger sequencer
// (internal/ledgerd, cmd/gdpledgerd).
//
// N serving replicas pointing their registries at one sequencer spend
// ONE budget: every Spend becomes an idempotent HTTP admission request
// carrying a client-unique op ID, and the sequencer fsyncs the op into
// its WAL before acking — the same durable-before-admitted contract
// DurableLedger gives one process, extended across processes.
//
// Failure semantics are strictly fail-closed, in the only safe
// direction: budget may be charged without bytes released, never the
// reverse.
//
//   - A definitive budget rejection (HTTP 429 "budget-exceeded") is a
//     clean ErrBudgetExceeded — the ledger state only grows, so the
//     rejection is permanent and nothing was spent.
//   - Transient failures (timeouts, connection errors, 5xx) are retried
//     with bounded exponential backoff and jitter under the SAME op ID,
//     so an admission whose ack was lost is re-acked, not re-debited.
//   - With a single configured address, anything else — retries
//     exhausted, an epoch fence (the sequencer restarted), a budget or
//     protocol mismatch — latches the ledger: every subsequent spend
//     returns ErrLedgerFailed until a new RemoteLedger is opened. A
//     latched spend admitted nothing the caller may release.
//
// Multi-address mode ("addr1,addr2,addr3" — a replicated sequencer
// group) adds failover on top without weakening any of the above: on a
// network error, 5xx, fence, or not-primary refusal the client walks
// the member list under the existing bounded backoff, re-attaches to
// adopt the new primary's term, and retries the SAME op ID — the
// group's whole-log dedup then returns the recorded outcome of an op
// whose first ack was lost to the failover, never a double charge.
// Every operation is bounded by one per-op context deadline
// (RemoteOptions.OpTimeout), so retries can never stack past the
// caller's budget.
package accountant

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	mrand "math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dp"
)

// ErrRemoteProtocol marks responses the client cannot interpret — a
// wrong server, a wire-format drift. It latches like any other
// non-transient failure.
var ErrRemoteProtocol = errors.New("accountant: unexpected remote-ledger response")

// RemoteOptions configures OpenRemoteLedger. The zero value selects the
// production defaults.
type RemoteOptions struct {
	// Timeout bounds each HTTP attempt (default 2s).
	Timeout time.Duration
	// OpTimeout bounds one whole operation — every attempt, backoff
	// pause, member walk and re-attach included (default 15s). Without
	// it, per-attempt timeouts could stack past any caller budget.
	OpTimeout time.Duration
	// Attempts bounds the tries per operation across ALL members, first
	// included (default 8: enough to walk a 3-member list twice over a
	// multi-second backoff window, so a spend that lands mid-election
	// rides through the failover instead of latching fail-closed while
	// the group is still choosing a primary).
	Attempts int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// attempts (defaults 50ms and 2s); each pause is jittered uniformly
	// in [base/2, base) at its current exponent so retrying replicas
	// never thundering-herd a recovering sequencer.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Client overrides the HTTP client (tests); Timeout still bounds
	// each attempt through the request context.
	Client *http.Client
}

func (o RemoteOptions) withDefaults() RemoteOptions {
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 15 * time.Second
	}
	if o.Attempts <= 0 {
		o.Attempts = 8
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	return o
}

// RemoteLedger implements Ledger against a gdpledgerd sequencer (or a
// replicated group of them). Reads (Spent, Remaining, OpCount) report
// the sequencer's authoritative state when reachable and fall back to
// the last state an admission response carried; Ops and AuditReport
// require the sequencer. Safe for concurrent use.
type RemoteLedger struct {
	members []string // normalized base URLs, ≥1
	key     string
	budget  dp.Params
	opts    RemoteOptions

	// clientID is drawn from OS entropy per open; opSeq numbers this
	// client's spends. Together they make op IDs unique across every
	// replica and restart without coordination.
	clientID string
	opSeq    atomic.Uint64

	// Observability counters (surfaced in RemoteStatus).
	retries    atomic.Uint64 // attempts beyond the first, any cause
	failovers  atomic.Uint64 // member-walk advances
	reattaches atomic.Uint64 // successful re-attach after a fence

	mu      sync.Mutex
	member  int // index of the member currently believed primary
	epoch   string
	spent   dp.Params // last authoritative spent observed
	opCount int
	failed  error
	rng     *mrand.Rand // backoff jitter; never touches released bytes
}

var _ Ledger = (*RemoteLedger)(nil)

// SplitMembers parses a sequencer address list (the -ledger-addr value:
// one address or a comma-separated group) into base URLs (MemberURL),
// empty entries dropped.
func SplitMembers(addr string) []string {
	var members []string
	for _, m := range strings.Split(addr, ",") {
		if m = strings.TrimSpace(m); m != "" {
			members = append(members, MemberURL(m))
		}
	}
	return members
}

// MemberURL is the base URL of one sequencer member's address: a
// missing scheme defaults to http:// and a trailing slash is stripped.
func MemberURL(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/")
}

// OpenRemoteLedger attaches to the sequencer at base — either one
// address ("http://127.0.0.1:8850") or a comma-separated member list
// ("a:8850,b:8850,c:8850") for a replicated group — opening (or
// replaying) the durable ledger for key under the given budget, and
// pins the sequencer's epoch token. Attaching an existing key under a
// different budget fails with ErrBudgetMismatch. The attach itself is
// retried (walking the member list) like a spend; an unreachable
// sequencer fails the open (nothing to latch yet).
func OpenRemoteLedger(base, key string, budget dp.Params, opts RemoteOptions) (*RemoteLedger, error) {
	if err := budget.Validate(); err != nil {
		return nil, err
	}
	if key == "" {
		return nil, errors.New("accountant: remote ledger key is required")
	}
	members := SplitMembers(base)
	if len(members) == 0 {
		return nil, errors.New("accountant: remote ledger address is required")
	}
	var idBytes [8]byte
	if _, err := rand.Read(idBytes[:]); err != nil {
		return nil, fmt.Errorf("accountant: drawing remote-ledger client id: %w", err)
	}
	seed := binary.LittleEndian.Uint64(idBytes[:])
	r := &RemoteLedger{
		members:  members,
		key:      key,
		budget:   budget,
		opts:     opts.withDefaults(),
		clientID: fmt.Sprintf("%016x", seed),
		rng:      mrand.New(mrand.NewSource(int64(seed))),
	}
	ctx, cancel := r.opContext(context.Background())
	defer cancel()
	var res AttachResult
	err := r.call(ctx, http.MethodPost, "/attach", r.attachBody, &res)
	if err != nil {
		return nil, fmt.Errorf("accountant: attaching remote ledger %q at %s: %w", key, base, err)
	}
	if res.Budget != budget {
		return nil, fmt.Errorf("%w: sequencer has %s, configured %s", ErrBudgetMismatch, res.Budget, budget)
	}
	if res.Epoch == "" {
		return nil, fmt.Errorf("%w: attach response carries no epoch", ErrRemoteProtocol)
	}
	r.mu.Lock()
	r.epoch = res.Epoch
	r.mu.Unlock()
	r.observe(res.Spent, res.OpCount)
	return r, nil
}

func (r *RemoteLedger) attachBody() any {
	return AttachRequest{Budget: r.budget}
}

// opContext derives the deadline bounding one whole operation. An
// earlier caller deadline wins.
func (r *RemoteLedger) opContext(parent context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(parent, r.opts.OpTimeout)
}

// RemoteStatus is the remote ledger's durability panel (the serving
// layer's /budget endpoint embeds it).
type RemoteStatus struct {
	// Addr is the member currently believed primary; Members is the full
	// configured list.
	Addr    string   `json:"addr"`
	Members []string `json:"members,omitempty"`
	Key     string   `json:"key"`
	Epoch   string   `json:"epoch"`
	// Retries counts attempts beyond the first; Failovers counts member
	// walks; Reattaches counts successful re-attachments after a fence.
	Retries    uint64 `json:"retries"`
	Failovers  uint64 `json:"failovers"`
	Reattaches uint64 `json:"reattaches"`
	// Err is the latched failure, "" while healthy.
	Err string `json:"error,omitempty"`
}

// Status reports the client's view of its sequencer binding.
func (r *RemoteLedger) Status() RemoteStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RemoteStatus{
		Addr:       r.members[r.member],
		Key:        r.key,
		Epoch:      r.epoch,
		Retries:    r.retries.Load(),
		Failovers:  r.failovers.Load(),
		Reattaches: r.reattaches.Load(),
	}
	if len(r.members) > 1 {
		st.Members = r.members
	}
	if r.failed != nil && !errors.Is(r.failed, ErrLedgerClosed) {
		st.Err = r.failed.Error()
	}
	return st
}

// Close latches the client closed: subsequent spends fail with
// ErrLedgerClosed. The sequencer keeps the durable state — a new
// RemoteLedger (any replica) reattaches to the same budget.
func (r *RemoteLedger) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed == nil {
		r.failed = ErrLedgerClosed
	}
	return nil
}

// Budget implements Ledger.
func (r *RemoteLedger) Budget() dp.Params { return r.budget }

// Spend implements Ledger.
func (r *RemoteLedger) Spend(label string, cost dp.Params) error {
	return r.SpendBytes([]byte(label), cost)
}

// SpendBytes implements Ledger: one idempotent admission, bounded by
// OpTimeout.
func (r *RemoteLedger) SpendBytes(label []byte, cost dp.Params) error {
	return r.SpendContext(context.Background(), string(label), cost)
}

// SpendContext is Spend with a caller-supplied context bounding the
// entire retry loop (member walks and re-attaches included); OpTimeout
// still applies on top. The op ID is fixed before the first attempt, so
// however many retries a flaky network or a failover forces, the
// sequencer group debits at most once; nil is returned only after a
// sequencer durably acked the admission.
func (r *RemoteLedger) SpendContext(ctx context.Context, label string, cost dp.Params) error {
	if err := cost.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	failed := r.failed
	r.mu.Unlock()
	if failed != nil {
		return fmt.Errorf("%w (label %q)", failed, label)
	}
	opID := fmt.Sprintf("%s-%d", r.clientID, r.opSeq.Add(1))
	ctx, cancel := r.opContext(ctx)
	defer cancel()
	var res SpendResult
	err := r.call(ctx, http.MethodPost, "/spend", func() any {
		r.mu.Lock()
		epoch := r.epoch
		r.mu.Unlock()
		return SpendRequest{Epoch: epoch, OpID: opID, Label: label, Cost: cost}
	}, &res)
	if err != nil {
		if errors.Is(err, ErrBudgetExceeded) {
			// Definitive rejection: nothing spent, nothing latched, and
			// (spend being monotone) retrying could never succeed.
			return fmt.Errorf("%w (label %q)", err, label)
		}
		return fmt.Errorf("%w (label %q)", r.latch(err), label)
	}
	if !res.Admitted {
		// A 200 that does not admit is protocol drift; treat as latching.
		return fmt.Errorf("%w (label %q)", r.latch(ErrRemoteProtocol), label)
	}
	r.observe(res.Spent, res.OpCount)
	return nil
}

// latch records the first fatal failure and returns the latched error.
func (r *RemoteLedger) latch(err error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failed == nil {
		r.failed = fmt.Errorf("%w: %v", ErrLedgerFailed, err)
	}
	return r.failed
}

// observe folds an authoritative response's spent and op count into
// the cached read state. Spent is monotone, so the freshest view is the
// componentwise max — out-of-order responses from concurrent spends
// cannot roll it back.
func (r *RemoteLedger) observe(spent dp.Params, ops int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spent.Epsilon = math.Max(r.spent.Epsilon, spent.Epsilon)
	r.spent.Delta = math.Max(r.spent.Delta, spent.Delta)
	if ops > r.opCount {
		r.opCount = ops
	}
}

// refresh pulls the sequencer's authoritative state; best effort — a
// failure leaves the cache (reads must not latch the ledger, and must
// keep answering during partitions, from the last known state).
func (r *RemoteLedger) refresh() {
	ctx, cancel := r.opContext(context.Background())
	defer cancel()
	var res StatusResult
	if err := r.call(ctx, http.MethodGet, "", nil, &res); err == nil {
		r.observe(res.Spent, res.OpCount)
	}
}

// Spent implements Ledger: the sequencer's authoritative total when
// reachable, else the last observed state (never ahead of the truth —
// both sources only report durably admitted ops).
func (r *RemoteLedger) Spent() dp.Params {
	r.refresh()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spent
}

// Remaining implements Ledger.
func (r *RemoteLedger) Remaining() dp.Params {
	spent := r.Spent()
	return dp.Params{
		Epsilon: math.Max(0, r.budget.Epsilon-spent.Epsilon),
		Delta:   math.Max(0, r.budget.Delta-spent.Delta),
	}
}

// OpCount implements Ledger.
func (r *RemoteLedger) OpCount() int {
	r.refresh()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.opCount
}

// Ops implements Ledger: the sequencer's audit trail (labels exactly as
// spent; the sequencer strips its op-ID envelope). Returns nil when the
// sequencer is unreachable — the trail lives with the WAL, not here.
func (r *RemoteLedger) Ops() []Op {
	ctx, cancel := r.opContext(context.Background())
	defer cancel()
	var res OpsResult
	if err := r.call(ctx, http.MethodGet, "/ops", nil, &res); err != nil {
		return nil
	}
	out := make([]Op, len(res.Ops))
	for i, op := range res.Ops {
		out[i] = Op{Seq: op.Seq, Label: op.Label, Cost: dp.Params{Epsilon: op.Epsilon, Delta: op.Delta}}
	}
	return out
}

// AuditReport implements Ledger.
func (r *RemoteLedger) AuditReport() string {
	ops := r.Ops()
	spent := r.Spent()
	var b strings.Builder
	fmt.Fprintf(&b, "privacy ledger (remote %s, key %s): budget %s, spent %s, %d ops\n",
		strings.Join(r.members, ","), r.key, r.budget, spent, len(ops))
	for _, op := range ops {
		fmt.Fprintf(&b, "  %3d. %-24s %s\n", op.Seq, op.Label, op.Cost)
	}
	return b.String()
}

// attempt outcome classes.
const (
	classOK    = iota // definitive success
	classFatal        // definitive failure: return to caller now
	classRetry        // transient: back off, walk, retry
	classFence        // epoch-fenced / not-attached / not-primary
)

// call runs one operation against /v1/ledgers/{key}{path} under ctx
// with the retry policy: transient failures (network errors, timeouts,
// 5xx) back off exponentially with jitter; definitive answers return
// immediately. bodyFn (nil for GETs) rebuilds the request body per
// attempt so a re-attach mid-loop refreshes the epoch it carries.
//
// With one configured member, a fence is fatal (the caller latches —
// the sequencer restarted under this client and only a fresh open may
// re-pin state). With several, a fence or not-primary triggers the
// failover walk: advance to the next member, re-attach to adopt its
// term, and retry the same op ID.
func (r *RemoteLedger) call(ctx context.Context, method, path string, bodyFn func() any, out any) error {
	var lastErr error
	for attempt := 0; attempt < r.opts.Attempts; attempt++ {
		if attempt > 0 {
			r.retries.Add(1)
			if err := r.sleepBackoff(ctx, attempt); err != nil {
				return fmt.Errorf("accountant: remote-ledger op deadline exhausted after %d attempts: %w (last: %v)",
					attempt, err, lastErr)
			}
		}
		var payload []byte
		if bodyFn != nil {
			var err error
			if payload, err = json.Marshal(bodyFn()); err != nil {
				return err
			}
		}
		r.mu.Lock()
		member := r.members[r.member]
		r.mu.Unlock()
		url := member + "/v1/ledgers/" + r.key + path
		class, err := r.attempt(ctx, method, url, payload, out)
		switch class {
		case classOK:
			return nil
		case classFatal:
			return err
		case classRetry:
			lastErr = err
			r.advanceMember()
		case classFence:
			lastErr = err
			if len(r.members) == 1 {
				// Single-node semantics (PR 8): a fence is definitive — the
				// caller must latch fail-closed.
				return err
			}
			if rerr := r.reattachWalk(ctx); rerr != nil {
				lastErr = fmt.Errorf("re-attach after fence: %w", rerr)
			}
		}
	}
	return fmt.Errorf("accountant: remote ledger %s unreachable after %d attempts: %w",
		strings.Join(r.members, ","), r.opts.Attempts, lastErr)
}

// advanceMember rotates to the next configured member (no-op with one).
func (r *RemoteLedger) advanceMember() {
	if len(r.members) == 1 {
		return
	}
	r.mu.Lock()
	r.member = (r.member + 1) % len(r.members)
	r.mu.Unlock()
	r.failovers.Add(1)
}

// reattachWalk re-attaches after a fence, trying every member once
// starting with the CURRENT one: an epoch-fenced refusal comes from the
// live primary itself (it holds a newer term than the epoch we sent),
// so the current member is exactly where the attach must land first —
// advancing before attaching would orbit the group without ever
// adopting the new term. A not-primary refusal walks on to the next
// member instead.
func (r *RemoteLedger) reattachWalk(ctx context.Context) error {
	var lastErr error
	for i := 0; i < len(r.members); i++ {
		if i > 0 {
			r.advanceMember()
		}
		if err := r.reattach(ctx); err == nil {
			return nil
		} else {
			lastErr = err
		}
		if ctx.Err() != nil {
			return lastErr
		}
	}
	// No member took the attach; leave the cursor advanced so the next
	// spend attempt probes somewhere new.
	r.advanceMember()
	return lastErr
}

// reattach re-runs the attach handshake against the current member to
// adopt its epoch (in group mode: the new primary's term). One single
// attempt — the surrounding call loop owns retries and further walking.
func (r *RemoteLedger) reattach(ctx context.Context) error {
	payload, err := json.Marshal(r.attachBody())
	if err != nil {
		return err
	}
	r.mu.Lock()
	member := r.members[r.member]
	r.mu.Unlock()
	var res AttachResult
	class, err := r.attempt(ctx, http.MethodPost, member+"/v1/ledgers/"+r.key+"/attach", payload, &res)
	if class != classOK {
		return err
	}
	if res.Budget != r.budget || res.Epoch == "" {
		return fmt.Errorf("%w: re-attach returned budget %s epoch %q", ErrRemoteProtocol, res.Budget, res.Epoch)
	}
	r.mu.Lock()
	r.epoch = res.Epoch
	r.mu.Unlock()
	r.observe(res.Spent, res.OpCount)
	r.reattaches.Add(1)
	return nil
}

// attempt is one HTTP round trip, classified.
func (r *RemoteLedger) attempt(ctx context.Context, method, url string, payload []byte, out any) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, r.opts.Timeout)
	defer cancel()
	var bodyReader io.Reader
	if payload != nil {
		bodyReader = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, bodyReader)
	if err != nil {
		return classFatal, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return classRetry, err // network/timeout: transient
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	if err != nil {
		return classRetry, err
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out != nil {
			if err := json.Unmarshal(data, out); err != nil {
				return classFatal, fmt.Errorf("%w: %v", ErrRemoteProtocol, err)
			}
		}
		return classOK, nil
	}
	var we WireError
	_ = json.Unmarshal(data, &we)
	msg := we.Error
	if msg == "" {
		msg = strings.TrimSpace(string(data))
	}
	switch {
	case we.Code == CodeBudgetExceeded:
		return classFatal, fmt.Errorf("%w: %s", ErrBudgetExceeded, msg)
	case we.Code == CodeBudgetMismatch:
		return classFatal, fmt.Errorf("%w: %s", ErrBudgetMismatch, msg)
	case we.Code == CodeEpochFenced, we.Code == CodeNotAttached, we.Code == CodeNotPrimary:
		return classFence, fmt.Errorf("accountant: sequencer fenced this writer (%s): %s", we.Code, msg)
	case resp.StatusCode >= 500:
		// Sequencer-side trouble (including "no-quorum"): retrying under
		// the same op ID is safe and may land once it recovers (or re-ack
		// an admitted op).
		return classRetry, fmt.Errorf("accountant: sequencer error (HTTP %d, %s): %s", resp.StatusCode, we.Code, msg)
	default:
		return classFatal, fmt.Errorf("%w: HTTP %d (%s): %s", ErrRemoteProtocol, resp.StatusCode, we.Code, msg)
	}
}

// sleepBackoff pauses before retry #attempt: exponential in the attempt
// number, capped at BackoffMax, jittered uniformly in [d/2, d). The
// context cuts the pause short — the op deadline outranks politeness.
func (r *RemoteLedger) sleepBackoff(ctx context.Context, attempt int) error {
	d := r.opts.BackoffBase << (attempt - 1)
	if d > r.opts.BackoffMax || d <= 0 {
		d = r.opts.BackoffMax
	}
	r.mu.Lock()
	jittered := d/2 + time.Duration(r.rng.Int63n(int64(d/2)+1))
	r.mu.Unlock()
	select {
	case <-time.After(jittered):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
