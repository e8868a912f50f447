// DurableLedger: crash-correct privacy accounting.
//
// DP spend is permanent by definition, so the ledger is the one piece
// of serving state that must outlive the process: an in-memory ledger
// that forgets its debits on restart silently re-arms exhausted budgets
// — a privacy violation, not an ops gap. DurableLedger writes every
// operation to an append-only write-ahead log and (under FsyncAlways)
// fsyncs it BEFORE the spend returns, so no caller ever releases noisy
// bytes for an op that is not durably logged. Reopening the same path
// replays the log: spent budget stays spent, the audit trail is
// bit-identical, and an exhausted ledger reopens exhausted.
//
// Spends are group-committed. The budget check, the sequence number and
// the frame's place in the log are fixed under the ledger lock, in
// admission order, and the check counts the ops already admitted whose
// frames are not yet durable. The write and fsync then run outside the
// lock, one batch at a time, shared by every spender queued in the batch
// (Log.Queue/Wait). An op enters Spent, Ops and OpCount only once the
// fsync covering its frame has returned.
//
// Failure semantics are strictly fail-closed. If a WAL write or fsync
// fails, no member of the failed batch, nor any op queued behind it, is
// admitted, the in-memory state is untouched, and the ledger latches the
// failure: every subsequent spend returns ErrLedgerFailed until the
// ledger is reopened (a failed write may have left a torn record on
// disk; appending more records after it would put durable spends beyond
// a tear that replay must truncate at). Replay tolerates exactly one
// torn tail — the prefix up to the first frame that fails its checksum
// is the ledger, the tail (a zero tail included) is discarded and the
// file truncated — while structural corruption (sequence gaps, foreign
// magic, a legacy snapshot file) refuses to open at all.
//
// The WAL is the ledger's only file and holds the whole audit trail:
// the magic, a header frame, then one frame per admitted op. Older
// builds also compacted the trail into <path>.snap; that format is
// gone, and a .snap beside the WAL refuses to open (ErrLedgerCorrupt)
// before anything is replayed or truncated, so no budget it recorded
// is ever re-armed.
//
// The WAL file itself — lock, replay, torn-tail truncation, fsync
// policy, batching, close — is a Log (log.go); this file keeps what is
// the ledger's own: the header record, the op-sequence rule and the
// pending ops. All file writes go through the WriteSyncer seam so tests
// can fail any write or fsync and assert the fail-closed contract.
package accountant

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"time"

	"repro/internal/dp"
)

// Errors returned by the durable ledger.
var (
	// ErrLedgerClosed is returned by spends after Close: a closed ledger
	// fails closed rather than admitting unlogged spends.
	ErrLedgerClosed = errors.New("accountant: durable ledger is closed")
	// ErrLedgerFailed is the latched state after a WAL write or fsync
	// failure: no further spends are admitted until the ledger is
	// reopened (which replays the durable prefix).
	ErrLedgerFailed = errors.New("accountant: durable ledger write failed; ledger is latched closed, reopen to recover")
	// ErrLedgerCorrupt marks structural corruption replay cannot repair
	// by truncating a torn tail: sequence gaps, foreign file magic, a
	// legacy snapshot file.
	ErrLedgerCorrupt = errors.New("accountant: ledger file corrupt")
	// ErrBudgetMismatch refuses to reopen a ledger under a different
	// total budget than it was created with — raising the budget of a
	// partially spent ledger would mint privacy out of thin air.
	ErrBudgetMismatch = errors.New("accountant: ledger file was created with a different budget")
	// ErrLedgerLocked reports that another live process holds the WAL.
	ErrLedgerLocked = errors.New("accountant: ledger file is locked by another process")
)

// FsyncPolicy selects when the WAL reaches stable storage.
type FsyncPolicy string

const (
	// FsyncAlways syncs every record before its spend is admitted: a
	// reported admission is durable even across power loss. The default.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval syncs at most every FsyncInterval of wall time:
	// admissions inside the window may be lost to a crash (the reopened
	// ledger then under-counts spend — it never over-counts).
	FsyncInterval FsyncPolicy = "interval"
	// FsyncOff never syncs except on Close; durability degrades to
	// whatever the OS page cache survives.
	FsyncOff FsyncPolicy = "off"
)

// ParseFsyncPolicy resolves a policy name; "" selects FsyncAlways.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case "":
		return FsyncAlways, nil
	case FsyncAlways, FsyncInterval, FsyncOff:
		return FsyncPolicy(s), nil
	}
	return "", fmt.Errorf("accountant: unknown fsync policy %q (want %q, %q or %q)",
		s, FsyncAlways, FsyncInterval, FsyncOff)
}

// WriteSyncer is the durable ledger's file-write seam: *os.File in
// production, a fault injector in tests.
type WriteSyncer interface {
	io.Writer
	Sync() error
	Close() error
}

// DefaultFsyncInterval bounds the unsynced window under FsyncInterval
// when DurableOptions.FsyncInterval is unset.
const DefaultFsyncInterval = 100 * time.Millisecond

// DurableOptions configures OpenDurableLedger. The zero value selects
// FsyncAlways and real files.
type DurableOptions struct {
	// Fsync is the WAL sync policy; "" selects FsyncAlways.
	Fsync FsyncPolicy
	// FsyncInterval bounds the unsynced window under FsyncInterval
	// (default DefaultFsyncInterval).
	FsyncInterval time.Duration
	// OpenWriter opens a path for appending — the fault-injection seam.
	// nil writes the WAL through a writer that keeps zeros ahead of its
	// position (log.go). Replay reads and the flock are NOT routed
	// through it: injected faults hit writes and syncs, exactly the
	// failures the ledger must fail closed on.
	OpenWriter func(path string) (WriteSyncer, error)
}

func (o DurableOptions) withDefaults() (DurableOptions, error) {
	p, err := ParseFsyncPolicy(string(o.Fsync))
	if err != nil {
		return DurableOptions{}, err
	}
	o.Fsync = p
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = DefaultFsyncInterval
	}
	return o, nil
}

// DurableStatus reports a durable ledger's backing state — the audit
// surface's durability panel.
type DurableStatus struct {
	Path   string `json:"path"`
	Policy string `json:"policy"`
	// WALRecords counts the op records in the WAL; WALBytes is its
	// length, magic and header frame included.
	WALRecords int   `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	// ReplayedOps is how many ops the last open restored from disk.
	ReplayedOps int `json:"replayed_ops"`
	// Compactions is always 0: the ledger no longer compacts. The field
	// stays for Go callers that read it and is not serialized.
	Compactions int `json:"-"`
	// Unsynced counts records written since the last fsync (always 0
	// under FsyncAlways) — the worst-case admission loss of a crash now.
	Unsynced int  `json:"unsynced"`
	Closed   bool `json:"closed"`
	// Err is the latched failure, "" while healthy.
	Err string `json:"error,omitempty"`
}

// DurableLedger is the WAL-backed Ledger implementation. The in-memory
// MemLedger state is the cache; the log is the truth.
type DurableLedger struct {
	path string
	opts DurableOptions

	// mem holds the replayed and committed state; its mutex also guards
	// every field below (one lock keeps check→number→queue atomic, and
	// commits in sequence order).
	mem     MemLedger
	log     *Log
	scratch []byte // payload assembly buffer
	buf     []byte // frame assembly buffer
	// admitted composes every admitted op, committed or pending, in
	// admission order — the spent the budget check runs against.
	admitted dp.Params
	// pending holds the admitted ops whose frames are queued or being
	// synced, in sequence order.
	pending  []pendingOp
	replayed int
	failed   error
	closed   bool
}

// pendingOp is an admitted op waiting for the fsync that covers its
// frame. label aliases the spender's bytes: the spender stays inside
// SpendBytes until the op is committed or, its batch failed, dropped.
type pendingOp struct {
	ticket uint64
	label  []byte
	cost   dp.Params
}

// OpenDurableLedger opens (creating if absent) the WAL at path and
// replays it into a live ledger with the given total budget. A reopened
// ledger resumes exactly where the durable prefix left off: Spent,
// OpCount and Ops reproduce the prior process's admitted history, and an
// exhausted budget stays exhausted. Reopening under a different budget
// fails with ErrBudgetMismatch, and a legacy snapshot at path+".snap"
// with ErrLedgerCorrupt, both files untouched. The file is flock'd for
// the ledger's lifetime; a second live process gets ErrLedgerLocked.
func OpenDurableLedger(budget dp.Params, path string, opts DurableOptions) (*DurableLedger, error) {
	if err := budget.Validate(); err != nil {
		return nil, err
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	// A legacy snapshot holds history the WAL beside it no longer
	// repeats: refuse before OpenLog can truncate or rewrite either file.
	snap := path + ".snap"
	switch _, err := os.Lstat(snap); {
	case err == nil:
		return nil, fmt.Errorf("%w: %s: legacy snapshot file, a ledger format this build no longer reads", ErrLedgerCorrupt, snap)
	case !errors.Is(err, fs.ErrNotExist):
		return nil, fmt.Errorf("accountant: checking for legacy snapshot %s: %w", snap, err)
	}
	d := &DurableLedger{
		path: path,
		opts: opts,
		mem:  MemLedger{budget: budget},
	}

	// Replay under the WAL's lock. The header is the first frame of every
	// WAL — read back, or about to be written to a fresh one.
	headed := false
	d.log, err = OpenLog(path, walMagic, appendHeaderPayload(nil, budget), opts, func(payload []byte) error {
		if headed {
			return d.replayOp(payload)
		}
		headed = true
		hdr, ok := parseHeaderPayload(payload)
		if !ok || hdr.version != ledgerVersion {
			return fmt.Errorf("%w: %s: bad WAL header", ErrLedgerCorrupt, path)
		}
		if hdr.budget != budget {
			return fmt.Errorf("%w: %s has budget %s, configured %s", ErrBudgetMismatch, path, hdr.budget, budget)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.replayed = len(d.mem.ops)
	d.admitted = dp.Params{Epsilon: d.mem.eps, Delta: d.mem.delta}
	return d, nil
}

// replayOp applies one WAL op frame. Its sequence number must be the
// next one; anything else is structural corruption.
func (d *DurableLedger) replayOp(payload []byte) error {
	op, ok := parseOpPayload(payload)
	if !ok {
		return errTornFrame // a non-op that still checksummed? impossible, but fail safe
	}
	next := uint64(len(d.mem.ops)) + 1
	if op.seq != next {
		return fmt.Errorf("%w: %s: op record %d out of sequence (have %d ops)",
			ErrLedgerCorrupt, d.path, op.seq, next-1)
	}
	if op.cost.Validate() != nil {
		return fmt.Errorf("%w: %s: op %d has invalid cost", ErrLedgerCorrupt, d.path, op.seq)
	}
	d.mem.commit(op.label, op.cost)
	return nil
}

// Spend implements Ledger.
func (d *DurableLedger) Spend(label string, cost dp.Params) error {
	return d.SpendBytes([]byte(label), cost)
}

// SpendBytes implements Ledger: check the budget, queue the op, wait
// for the fsync that covers it (per the fsync policy), and only then
// commit it. Any logging failure latches the ledger (see the package
// comment) and admits nothing.
func (d *DurableLedger) SpendBytes(label []byte, cost dp.Params) error {
	if err := cost.Validate(); err != nil {
		return err
	}
	l := &d.mem
	l.mu.Lock()
	if d.failed != nil {
		l.mu.Unlock()
		return fmt.Errorf("%w (label %q)", d.failed, label)
	}
	if err := checkSpend(l.budget, d.admitted, cost); err != nil {
		l.mu.Unlock()
		return fmt.Errorf("%w (label %q)", err, label)
	}
	seq := uint64(len(l.ops)+len(d.pending)) + 1
	d.buf, d.scratch = appendOpFrame(d.buf[:0], d.scratch, seq, cost, label)
	ticket := d.log.Queue(d.buf)
	d.pending = append(d.pending, pendingOp{ticket: ticket, label: label, cost: cost})
	d.admitted.Epsilon += cost.Epsilon
	d.admitted.Delta += cost.Delta
	l.mu.Unlock()

	err := d.log.Wait(ticket)

	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		// This batch and every later one failed: drop their ops, which
		// also ends the aliasing of their spenders' labels.
		for i, p := range d.pending {
			if p.ticket >= ticket {
				d.pending = d.pending[:i]
				break
			}
		}
		d.latch(fmt.Errorf("op %d: %w", seq, err))
		return fmt.Errorf("%w (label %q)", d.failed, label)
	}
	d.commitThrough(ticket)
	return nil
}

// commitThrough commits, in sequence order, every pending op whose batch
// is at or before ticket — durable, since batches complete in order.
// Callers hold the lock.
func (d *DurableLedger) commitThrough(ticket uint64) {
	n := 0
	for _, p := range d.pending {
		if p.ticket > ticket {
			break
		}
		d.mem.commit(p.label, p.cost)
		n++
	}
	d.pending = d.pending[:copy(d.pending, d.pending[n:])]
}

// drainLocked waits, holding the lock, until every pending op is durable
// and commits them all. Callers hold the lock.
func (d *DurableLedger) drainLocked() error {
	if len(d.pending) == 0 {
		return nil
	}
	last := d.pending[len(d.pending)-1].ticket
	if err := d.log.Wait(last); err != nil {
		return err
	}
	d.commitThrough(last)
	return nil
}

// latch records the ledger's first failure. Callers hold the lock.
func (d *DurableLedger) latch(err error) {
	if d.failed == nil {
		d.failed = err
	}
}

// Sync flushes the WAL to stable storage regardless of policy.
func (d *DurableLedger) Sync() error {
	d.mem.mu.Lock()
	defer d.mem.mu.Unlock()
	if d.failed != nil {
		return d.failed
	}
	if err := d.log.Sync(); err != nil {
		d.latch(fmt.Errorf("%w: sync: %v", ErrLedgerFailed, err))
		return d.failed
	}
	return nil
}

// Close commits what is pending, flushes and closes the WAL and releases
// the file lock. The ledger fails closed afterwards: further spends
// return ErrLedgerClosed. Close is idempotent.
func (d *DurableLedger) Close() error {
	d.mem.mu.Lock()
	defer d.mem.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var err error
	if d.failed == nil {
		err = d.drainLocked()
		d.failed = ErrLedgerClosed
	}
	return errors.Join(err, d.log.Close())
}

// Status reports the ledger's durable-backing state.
func (d *DurableLedger) Status() DurableStatus {
	d.mem.mu.Lock()
	defer d.mem.mu.Unlock()
	st := DurableStatus{
		Path:        d.path,
		Policy:      string(d.opts.Fsync),
		WALRecords:  len(d.mem.ops),
		WALBytes:    d.log.Size(),
		ReplayedOps: d.replayed,
		Unsynced:    d.log.Unsynced(),
		Closed:      d.closed,
	}
	if d.failed != nil && !errors.Is(d.failed, ErrLedgerClosed) {
		st.Err = d.failed.Error()
	}
	return st
}

// Budget, Spent, Remaining, OpCount, Ops and AuditReport delegate to the
// replayed in-memory state (reads never touch the disk).
func (d *DurableLedger) Budget() dp.Params    { return d.mem.Budget() }
func (d *DurableLedger) Spent() dp.Params     { return d.mem.Spent() }
func (d *DurableLedger) Remaining() dp.Params { return d.mem.Remaining() }
func (d *DurableLedger) OpCount() int         { return d.mem.OpCount() }
func (d *DurableLedger) Ops() []Op            { return d.mem.Ops() }
func (d *DurableLedger) AuditReport() string  { return d.mem.AuditReport() }
