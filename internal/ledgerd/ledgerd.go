// Package ledgerd is the shared privacy-ledger sequencer: it admits
// spends against one budget per key on behalf of N gdpserve replicas,
// so a deployment behind a load balancer spends ONE (εg, δ) budget
// instead of silently multiplying the paper's guarantee by the replica
// count. Accounting must be centralized even when answering is not —
// the canonical DP deployment failure this package exists to close.
//
// There is one sequencer: a Group (group.go) that keeps one totally
// ordered log of attach and spend entries (grouplog.go) and derives
// every key's ledger by applying its committed prefix. New opens it;
// NewHandler serves it. With Options.Peers set, the log is replicated
// across an odd number of members and a spend commits once a majority
// has fsynced it. Without, the group has one member, which promotes
// itself in New, and commits once its own log write returns.
//
// The admission protocol is exactly-once under retries:
//
//   - Every spend carries a client-generated op ID. The sequencer folds
//     the op ID into the logged op label, so the dedup index is rebuilt
//     from the log on restart: a retried op whose first attempt was
//     admitted (but whose ack was lost to a timeout) is recognized and
//     re-acked, never double-debited.
//   - The op is written to the log (fsynced under FsyncAlways, the
//     default and the only policy a replicated group accepts) BEFORE
//     the ack, so an admitted spend can never be forgotten — the
//     direction of every failure is "budget charged, bytes withheld",
//     never the reverse.
//   - Every spend carries the epoch token the client learned at attach:
//     the member directory's random identity and its durable term. A
//     single member bumps the term on every open; a group bumps it on
//     every election. A request carrying another token is refused (the
//     client must fail closed or re-attach), which fences a restarted —
//     or worse, swapped — sequencer against writers still operating on
//     its predecessor's state.
//
// Budget exhaustion is a definitive answer, not a failure: the ledger
// state only grows, so a rejected spend stays rejected and is safe to
// report without dedup. Everything else — I/O faults, unknown keys,
// stale epochs — is an error the client must latch on.
//
// The log is an accountant.Log, the crash-safe file every durable
// ledger sits on, and the term file is published by
// accountant.WriteFileAtomic.
package ledgerd

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/accountant"
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
	// ErrNotAttached refuses a spend against a key the committed log
	// never attached.
	ErrNotAttached = errors.New("ledgerd: ledger key not attached")
	// ErrClosed is returned once the sequencer is shut down.
	ErrClosed = errors.New("ledgerd: service closed")
)

// Options configures New. Dir is required; every other field has a
// default.
type Options struct {
	// Dir holds the member's log and durable term file.
	Dir string
	// Fsync configures the log ("" selects FsyncAlways — the only
	// policy under which an ack implies durability across power loss,
	// and the only one a group with Peers accepts: there a majority ack
	// IS the durability guarantee).
	Fsync accountant.FsyncPolicy
	// NodeID names this member ("local" by default without Peers);
	// Peers maps every member ID (this node included) to its base
	// address. With no Peers the group has one member, which promotes
	// itself in New.
	NodeID string
	Peers  map[string]string
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
	// OpenWriter is the fault-injection seam for the log's file writes
	// (tests only), as in accountant.DurableOptions.
	OpenWriter func(path string) (accountant.WriteSyncer, error)
	// Logf, when set, receives group life-cycle events (promotions,
	// fencings, step-downs).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, errors.New("ledgerd: Options.Dir is required")
	}
	policy, err := accountant.ParseFsyncPolicy(string(o.Fsync))
	if err != nil {
		return o, err
	}
	o.Fsync = policy
	if len(o.Peers) > 0 {
		if _, ok := o.Peers[o.NodeID]; !ok {
			return o, fmt.Errorf("ledgerd: Options.Peers must include this node (%q)", o.NodeID)
		}
		if policy != accountant.FsyncAlways {
			return o, fmt.Errorf("ledgerd: a replicated group always fsyncs (a majority ack IS the durability guarantee), got fsync policy %q", policy)
		}
		ids := make([]string, 0, len(o.Peers))
		for id := range o.Peers {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		owner := make(map[string]string, len(ids))
		for _, id := range ids {
			if prev, dup := owner[o.Peers[id]]; dup {
				return o, fmt.Errorf("ledgerd: Options.Peers gives members %s and %s the same address %q", prev, id, o.Peers[id])
			}
			owner[o.Peers[id]] = id
		}
	}
	if len(o.Peers) == 0 && o.NodeID == "" {
		o.NodeID = "local"
	}
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
	return o, nil
}

// legacyEpochFile is where the single-node sequencer of older builds
// kept its fencing token, beside one <key>.wal per budget key.
const legacyEpochFile = ".sequencer-epoch"

// refuseLegacyDir refuses a directory an older build's single-node
// sequencer wrote. Its per-key WALs are a format this build does not
// read, and opening the directory as an empty group would re-arm every
// budget they record as spent. It reads the directory listing only.
func refuseLegacyDir(dir string) error {
	names, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ledgerd: ledger dir: %w", err)
	}
	for _, de := range names {
		name := de.Name()
		if name == legacyEpochFile || (strings.HasSuffix(name, ".wal") && name[0] != '.') {
			return fmt.Errorf("%w: %s: single-node ledger directory from an older build (per-key WALs and %s), a format this build no longer reads",
				accountant.ErrLedgerCorrupt, filepath.Join(dir, name), legacyEpochFile)
		}
	}
	return nil
}

// ValidKey reports whether a ledger key is safe to name a budget:
// non-empty, bounded, filesystem-safe characters only, and never
// dot-led (which excludes ".", "..", and the sequencer's own files).
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

// opIDSep joins the op ID and the client's label inside the logged op
// record; op IDs reject the separator so the split is unambiguous, and
// labels without the prefix simply contribute nothing to the dedup set.
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
