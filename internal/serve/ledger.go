package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/accountant"
)

// openLedger opens the dataset's budget on the configured backend: a
// WAL in LedgerDir, a sequencer budget at LedgerAddr, or memory. The WAL
// file and the sequencer ledger are named by the SAME (name, fingerprint)
// key, so every replica that ingests the same data under the same name
// attaches to — and spends from — ONE budget.
func (r *Registry) openLedger(ds *Dataset) (err error) {
	switch {
	case r.cfg.LedgerDir != "":
		path := filepath.Join(r.cfg.LedgerDir, ledgerFileName(ds.name, ds.print))
		ds.durable, err = accountant.OpenDurableLedger(r.cfg.Budget, path, accountant.DurableOptions{
			Fsync:      accountant.FsyncAlways,
			OpenWriter: r.cfg.ledgerOpenWriter,
		})
		if err != nil {
			return fmt.Errorf("opening ledger: %w", err)
		}
		ds.ledger = ds.durable
	case r.cfg.LedgerAddr != "":
		ds.remote, err = accountant.OpenRemoteLedger(r.cfg.LedgerAddr, ledgerKey(ds.name, ds.print), r.cfg.Budget, r.cfg.ledgerRemoteOptions)
		if err != nil {
			return fmt.Errorf("attaching remote ledger: %w", err)
		}
		ds.ledger = ds.remote
	default:
		ds.ledger, err = accountant.NewLedger(r.cfg.Budget)
	}
	return err
}

// ledgerKey keys a dataset's budget by its name AND data fingerprint:
// re-ingesting different data under a reused name must start a fresh
// budget, never inherit (or clobber) the old one. The name is sanitized
// for the filesystem (and for sequencer URLs), so an fnv hash of the
// exact name keeps two names that sanitize identically ("a/b" vs "a_b")
// from colliding into one shared budget. Locally the key names the WAL
// file (ledgerFileName); remotely it names the sequencer ledger — the
// SAME key either way, so every replica that ingested the same data
// lands on the same budget.
func ledgerKey(name string, print uint64) string {
	h := fnv.New64a()
	h.Write([]byte(name))
	safe := make([]byte, 0, len(name))
	for i := 0; i < len(name) && len(safe) < 40; i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '_', c == '-':
			safe = append(safe, c)
		default:
			safe = append(safe, '_')
		}
	}
	return fmt.Sprintf("%s-%016x-%016x", safe, h.Sum64(), print)
}

// ledgerFileName is the on-disk WAL name of a dataset's local durable
// ledger.
func ledgerFileName(name string, print uint64) string {
	return ledgerKey(name, print) + ".wal"
}

// pingSequencer checks that a gdpledgerd sequencer is READY to admit
// spends: addr is one host:port (or http://host:port) or a
// comma-separated group member list, and the ping succeeds if ANY
// member answers /readyz with 200. Readiness — not liveness — is the
// right probe here: a follower that is up but has lost its leader
// answers /healthz cheerfully while every spend routed at it would
// bounce.
func pingSequencer(addr string) error {
	client := &http.Client{Timeout: 2 * time.Second}
	var lastErr error
	for _, member := range accountant.SplitMembers(addr) {
		resp, err := client.Get(member + "/readyz")
		if err != nil {
			lastErr = err
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		lastErr = fmt.Errorf("sequencer readyz answered HTTP %d", resp.StatusCode)
	}
	if lastErr == nil {
		return errors.New("no sequencer members in address list")
	}
	return fmt.Errorf("no ready sequencer member: %w", lastErr)
}

// closeLedger flushes and closes the dataset's durable WAL, or detaches
// its remote-ledger client (no-op for in-memory ledgers). Idempotent.
func (d *Dataset) closeLedger() error {
	if d.durable != nil {
		return d.durable.Close()
	}
	if d.remote != nil {
		return d.remote.Close()
	}
	return nil
}

// LedgerBackend names the accounting backend serving this dataset:
// "mem" (in-process, forgotten on restart), "wal" (local DurableLedger)
// or "remote" (shared gdpledgerd sequencer). Benchmark records and the
// /budget endpoint stamp it so results are never compared across
// backends.
func (d *Dataset) LedgerBackend() string {
	switch {
	case d.durable != nil:
		return "wal"
	case d.remote != nil:
		return "remote"
	default:
		return "mem"
	}
}

// Durability reports the dataset's durable-ledger status; ok is false
// for in-memory and remote ledgers (the sequencer owns the WAL —
// RemoteStatus reports the client's binding).
func (d *Dataset) Durability() (st accountant.DurableStatus, ok bool) {
	if d.durable == nil {
		return accountant.DurableStatus{}, false
	}
	return d.durable.Status(), true
}

// RemoteStatus reports the dataset's sequencer binding; ok is false for
// local ledgers.
func (d *Dataset) RemoteStatus() (st accountant.RemoteStatus, ok bool) {
	if d.remote == nil {
		return accountant.RemoteStatus{}, false
	}
	return d.remote.Status(), true
}
