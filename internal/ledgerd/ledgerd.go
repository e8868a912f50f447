// Package ledgerd is the shared privacy-ledger sequencer: a
// single-writer service that owns one accountant.DurableLedger per
// budget key and admits spends on behalf of N gdpserve replicas, so a
// deployment behind a load balancer spends ONE (εg, δ) budget instead
// of silently multiplying the paper's guarantee by the replica count.
// Accounting must be centralized even when answering is not — the
// canonical DP deployment failure this service exists to close.
//
// The admission protocol is exactly-once under retries:
//
//   - Every spend carries a client-generated op ID. The sequencer folds
//     the op ID into the WAL op label before logging, so the dedup set
//     is rebuilt from replay on restart: a retried op whose first
//     attempt was admitted (but whose ack was lost to a timeout) is
//     recognized and re-acked, never double-debited.
//   - The op is fsynced into the WAL (accountant.DurableLedger under
//     its configured policy; FsyncAlways by default) BEFORE the ack, so
//     an admitted spend can never be forgotten — the direction of every
//     failure is "budget charged, bytes withheld", never the reverse.
//   - Every spend carries the epoch token the client learned at attach.
//     The token pins both the ledger directory's persistent identity
//     and a boot counter incremented on every sequencer start; a
//     request carrying a stale token is refused (the client must fail
//     closed), which fences a restarted — or worse, swapped — sequencer
//     against writers still operating on its predecessor's state.
//
// Budget exhaustion is a definitive answer, not a failure: the ledger
// state only grows, so a rejected spend stays rejected and is safe to
// report without dedup. Everything else — I/O faults, unknown keys,
// stale epochs — is an error the client must latch on.
//
// Group mode (group.go, grouplog.go) replicates one log across an odd
// number of members instead. Both modes keep their bytes in the same
// crash-safe file type: a key's WAL is an accountant.DurableLedger over
// an accountant.Log, the replicated log is an accountant.Log directly,
// and the epoch and term files are published by
// accountant.WriteFileAtomic.
package ledgerd

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/accountant"
	"repro/internal/dp"
)

// Errors returned by the sequencer core; the HTTP layer maps them onto
// status codes and the wire error codes accountant.RemoteLedger keys on.
var (
	// ErrBadKey rejects ledger keys that could escape the ledger
	// directory or collide with the sequencer's own bookkeeping files.
	ErrBadKey = errors.New("ledgerd: invalid ledger key")
	// ErrBadOpID rejects malformed idempotency tokens.
	ErrBadOpID = errors.New("ledgerd: invalid op id")
	// ErrEpochFenced refuses a request whose epoch token does not match
	// the live sequencer: the writer attached to a previous incarnation
	// and must re-attach (or fail closed) rather than keep spending
	// under assumptions the restart may have invalidated.
	ErrEpochFenced = errors.New("ledgerd: stale epoch token (sequencer restarted); re-attach before spending")
	// ErrNotAttached refuses a spend against a key no client attached in
	// this sequencer incarnation.
	ErrNotAttached = errors.New("ledgerd: ledger key not attached")
	// ErrClosed is returned once the service is shut down.
	ErrClosed = errors.New("ledgerd: service closed")
)

// epochFile persists the sequencer's fencing state inside the ledger
// directory: the directory's random persistent identity plus a boot
// counter. Ledger keys cannot collide with it (they never start with
// a dot).
const epochFile = ".sequencer-epoch"

// Options configures a Service. Dir is required; the durability knobs
// mirror accountant.DurableOptions and apply to every ledger the
// service opens.
type Options struct {
	// Dir holds one WAL per ledger key, plus the epoch file.
	Dir string
	// Fsync and FsyncInterval configure every DurableLedger the service
	// opens ("" selects FsyncAlways — the only policy under which an ack
	// implies durability across power loss).
	Fsync         accountant.FsyncPolicy
	FsyncInterval time.Duration
	// OpenWriter is the accountant fault-injection seam, threaded into
	// every ledger (tests only).
	OpenWriter func(path string) (accountant.WriteSyncer, error)
}

// Service is the sequencer core: a map of open durable ledgers plus the
// idempotency state rebuilt from their WALs. Safe for concurrent use.
type Service struct {
	opts  Options
	epoch string

	mu      sync.Mutex
	ledgers map[string]*ledgerEntry
	closed  bool
}

// ledgerEntry pairs one durable ledger with its replay-derived dedup
// set. The entry mutex serializes the dedup-check → spend → record
// sequence so a retried op can never race its own first attempt.
type ledgerEntry struct {
	mu      sync.Mutex
	dl      *accountant.DurableLedger
	applied map[string]int // op ID → admitted seq
}

// New opens (creating if needed) the ledger directory, advances the
// sequencer epoch, and returns an empty service. Ledgers open lazily at
// Attach and replay any prior incarnation's spends.
func New(opts Options) (*Service, error) {
	if opts.Dir == "" {
		return nil, errors.New("ledgerd: Options.Dir is required")
	}
	if _, err := accountant.ParseFsyncPolicy(string(opts.Fsync)); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledgerd: ledger dir: %w", err)
	}
	epoch, err := advanceEpoch(opts.Dir)
	if err != nil {
		return nil, err
	}
	return &Service{
		opts:    opts,
		epoch:   epoch,
		ledgers: make(map[string]*ledgerEntry),
	}, nil
}

// advanceEpoch reads, increments and durably rewrites the epoch file.
// The token is "<dir identity>:<boot counter>": the identity is drawn
// from OS entropy when the directory is first used and never changes,
// so two sequencers over DIFFERENT directories can never accidentally
// share a token even when their boot counters coincide.
func advanceEpoch(dir string) (string, error) {
	path := filepath.Join(dir, epochFile)
	var id uint64
	var boot uint64
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		idStr, bootStr, ok := strings.Cut(strings.TrimSpace(string(data)), ":")
		if !ok {
			return "", fmt.Errorf("ledgerd: malformed epoch file %s", path)
		}
		if id, err = strconv.ParseUint(idStr, 16, 64); err != nil {
			return "", fmt.Errorf("ledgerd: malformed epoch file %s: %v", path, err)
		}
		if boot, err = strconv.ParseUint(bootStr, 10, 64); err != nil {
			return "", fmt.Errorf("ledgerd: malformed epoch file %s: %v", path, err)
		}
	case errors.Is(err, fs.ErrNotExist):
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "", fmt.Errorf("ledgerd: drawing dir identity: %w", err)
		}
		id = binary.LittleEndian.Uint64(b[:])
	default:
		return "", fmt.Errorf("ledgerd: reading epoch file: %w", err)
	}
	boot++
	token := fmt.Sprintf("%016x:%d", id, boot)
	// Atomic publish: the token a client may pin must itself survive a
	// crash, or a re-restart could hand out a token the previous boot
	// already handed out.
	if err := accountant.WriteFileAtomic(path, []byte(token+"\n")); err != nil {
		return "", fmt.Errorf("ledgerd: writing epoch file: %w", err)
	}
	return token, nil
}

// Epoch returns the live fencing token.
func (s *Service) Epoch() string { return s.epoch }

// ValidKey reports whether a ledger key is safe to use as a filename
// inside the ledger directory: non-empty, bounded, filesystem-safe
// characters only, and never dot-led (which excludes ".", "..", and the
// sequencer's own epoch file).
func ValidKey(key string) bool {
	if key == "" || len(key) > 200 || key[0] == '.' {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// opIDSep joins the op ID and the client's label inside the WAL op
// record; op IDs reject the separator so the split is unambiguous, and
// labels written by a non-sequencer DurableLedger (which lack the
// prefix entirely) simply contribute nothing to the dedup set.
const (
	opIDPrefix = "id="
	opIDSep    = '|'
)

// validOpID bounds the idempotency token: non-empty, short, and free of
// the label separator.
func validOpID(opID string) bool {
	if opID == "" || len(opID) > 128 {
		return false
	}
	return !strings.ContainsRune(opID, opIDSep)
}

// encodeLabel folds the op ID into the durable label.
func encodeLabel(opID, label string) string {
	return opIDPrefix + opID + string(opIDSep) + label
}

// decodeLabel splits a durable label back into (opID, client label).
// ok is false for labels without the sequencer envelope.
func decodeLabel(stored string) (opID, label string, ok bool) {
	if !strings.HasPrefix(stored, opIDPrefix) {
		return "", "", false
	}
	rest := stored[len(opIDPrefix):]
	i := strings.IndexByte(rest, opIDSep)
	if i < 0 {
		return "", "", false
	}
	return rest[:i], rest[i+1:], true
}

// AttachResult reports the authoritative ledger state a client pins at
// attach time.
type AttachResult struct {
	Epoch     string
	Budget    dp.Params
	Spent     dp.Params
	Remaining dp.Params
	OpCount   int
}

// Attach opens (creating or replaying) the durable ledger for key under
// the given budget and returns its authoritative state plus the epoch
// token every subsequent spend must carry. Attaching an existing key
// with a different budget fails with accountant.ErrBudgetMismatch —
// raising a partially spent budget would mint privacy out of thin air.
// Attach is idempotent.
func (s *Service) Attach(key string, budget dp.Params) (AttachResult, error) {
	if !ValidKey(key) {
		return AttachResult{}, fmt.Errorf("%w: %q", ErrBadKey, key)
	}
	if err := budget.Validate(); err != nil {
		return AttachResult{}, err
	}
	e, err := s.entry(key, budget)
	if err != nil {
		return AttachResult{}, err
	}
	return AttachResult{
		Epoch:     s.epoch,
		Budget:    e.dl.Budget(),
		Spent:     e.dl.Spent(),
		Remaining: e.dl.Remaining(),
		OpCount:   e.dl.OpCount(),
	}, nil
}

// entry returns the open ledger for key, opening it if needed. With a
// zero budget the key must already be open (the read-only paths).
func (s *Service) entry(key string, budget dp.Params) (*ledgerEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if e, ok := s.ledgers[key]; ok {
		if budget != (dp.Params{}) && e.dl.Budget() != budget {
			return nil, fmt.Errorf("%w: key %q is open with budget %s, attach requested %s",
				accountant.ErrBudgetMismatch, key, e.dl.Budget(), budget)
		}
		return e, nil
	}
	if budget == (dp.Params{}) {
		return nil, fmt.Errorf("%w: %q", ErrNotAttached, key)
	}
	dl, err := accountant.OpenDurableLedger(budget, filepath.Join(s.opts.Dir, key+".wal"), accountant.DurableOptions{
		Fsync:         s.opts.Fsync,
		FsyncInterval: s.opts.FsyncInterval,
		OpenWriter:    s.opts.OpenWriter,
	})
	if err != nil {
		return nil, err
	}
	// Rebuild the exactly-once dedup set from the replayed trail: an op
	// admitted by a previous incarnation must be recognized when its
	// (timed-out) sender retries it against this one.
	e := &ledgerEntry{dl: dl, applied: make(map[string]int)}
	for _, op := range dl.Ops() {
		if opID, _, ok := decodeLabel(op.Label); ok {
			e.applied[opID] = op.Seq
		}
	}
	s.ledgers[key] = e
	return e, nil
}

// SpendResult acknowledges one admitted (or replayed) spend.
type SpendResult struct {
	// Seq is the admitted op's 1-based ledger sequence.
	Seq int
	// Replayed reports that the op ID was already admitted (a retry of
	// an op whose first ack was lost) and nothing was re-debited.
	Replayed  bool
	Spent     dp.Params
	Remaining dp.Params
	OpCount   int
}

// Spend admits one operation exactly once. The epoch must match the
// live token (ErrEpochFenced otherwise), the key must be attached, and
// the op ID must be well-formed. The spend is durably logged (fsynced
// under FsyncAlways) before the result is returned; a budget rejection
// surfaces as accountant.ErrBudgetExceeded with nothing changed, and
// any durable-log failure latches the underlying ledger fail-closed
// exactly as a local DurableLedger would.
func (s *Service) Spend(key, epoch, opID, label string, cost dp.Params) (SpendResult, error) {
	if !ValidKey(key) {
		return SpendResult{}, fmt.Errorf("%w: %q", ErrBadKey, key)
	}
	if epoch != s.epoch {
		return SpendResult{}, fmt.Errorf("%w (request %q, live %q)", ErrEpochFenced, epoch, s.epoch)
	}
	if !validOpID(opID) {
		return SpendResult{}, fmt.Errorf("%w: %q", ErrBadOpID, opID)
	}
	e, err := s.entry(key, dp.Params{})
	if err != nil {
		return SpendResult{}, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if seq, ok := e.applied[opID]; ok {
		return s.result(e, seq, true), nil
	}
	if err := e.dl.Spend(encodeLabel(opID, label), cost); err != nil {
		return SpendResult{}, err
	}
	seq := e.dl.OpCount()
	e.applied[opID] = seq
	return s.result(e, seq, false), nil
}

func (s *Service) result(e *ledgerEntry, seq int, replayed bool) SpendResult {
	return SpendResult{
		Seq:       seq,
		Replayed:  replayed,
		Spent:     e.dl.Spent(),
		Remaining: e.dl.Remaining(),
		OpCount:   e.dl.OpCount(),
	}
}

// Status reports one attached ledger's state (read-only; the key must
// be attached in this incarnation).
type Status struct {
	Key       string
	Epoch     string
	Budget    dp.Params
	Spent     dp.Params
	Remaining dp.Params
	OpCount   int
	Durable   accountant.DurableStatus
}

// Status returns the live state of an attached key.
func (s *Service) Status(key string) (Status, error) {
	if !ValidKey(key) {
		return Status{}, fmt.Errorf("%w: %q", ErrBadKey, key)
	}
	e, err := s.entry(key, dp.Params{})
	if err != nil {
		return Status{}, err
	}
	return Status{
		Key:       key,
		Epoch:     s.epoch,
		Budget:    e.dl.Budget(),
		Spent:     e.dl.Spent(),
		Remaining: e.dl.Remaining(),
		OpCount:   e.dl.OpCount(),
		Durable:   e.dl.Status(),
	}, nil
}

// Ops returns an attached key's audit trail with the sequencer's op-ID
// envelope stripped: clients see exactly the labels they spent under.
func (s *Service) Ops(key string) ([]accountant.Op, error) {
	if !ValidKey(key) {
		return nil, fmt.Errorf("%w: %q", ErrBadKey, key)
	}
	e, err := s.entry(key, dp.Params{})
	if err != nil {
		return nil, err
	}
	ops := e.dl.Ops()
	for i := range ops {
		if _, label, ok := decodeLabel(ops[i].Label); ok {
			ops[i].Label = label
		}
	}
	return ops, nil
}

// Ready implements the readiness probe: a single-node sequencer is
// ready while it is open (its durable state is local, so open means
// attachable).
func (s *Service) Ready() (bool, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, "closed"
	}
	return true, "single-node"
}

// Keys lists the ledger keys attached in this incarnation.
func (s *Service) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.ledgers))
	for k := range s.ledgers {
		out = append(out, k)
	}
	return out
}

// Close flushes and closes every open ledger. Further calls fail with
// ErrClosed; Close is idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var errs []error
	for key, e := range s.ledgers {
		if err := e.dl.Close(); err != nil {
			errs = append(errs, fmt.Errorf("ledgerd: closing %q: %w", key, err))
		}
	}
	return errors.Join(errs...)
}
