package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sync"

	"repro/internal/rng"
)

// Registry owns named datasets and the ingest lanes that build them. It
// is safe for concurrent use.
type Registry struct {
	cfg   Config
	lanes chan struct{} // one slot per build in flight
	// ingests counts in-flight AddDataset calls. Close waits for it
	// before closing the ledgers, so the ledger of an ingest that passed
	// the closed check is closed too.
	ingests sync.WaitGroup

	mu       sync.RWMutex
	closed   bool
	datasets map[string]*Dataset // nil value = ingest in flight (name reserved)
}

// Open validates cfg and returns an empty registry. When cfg.LedgerDir
// is set the directory is created if needed; every dataset added to the
// registry then accounts its budget in a durable WAL there. When
// cfg.LedgerAddr is set the sequencer is pinged once (any READY member
// of a comma-separated group will do) — a registry that could never
// account a spend must fail at startup, not on the first ingest.
func Open(cfg Config) (*Registry, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.LedgerDir != "" {
		if err := os.MkdirAll(cfg.LedgerDir, 0o755); err != nil {
			return nil, fmt.Errorf("%w: ledger dir: %v", ErrBadConfig, err)
		}
	}
	if cfg.LedgerAddr != "" {
		if err := pingSequencer(cfg.LedgerAddr); err != nil {
			return nil, fmt.Errorf("%w: ledger addr %q: %v", ErrBadConfig, cfg.LedgerAddr, err)
		}
	}
	r := &Registry{
		cfg:      cfg,
		lanes:    make(chan struct{}, cfg.IngestLanes),
		datasets: make(map[string]*Dataset),
	}
	return r, nil
}

// Config returns the registry's resolved configuration.
func (r *Registry) Config() Config { return r.cfg }

// Close waits for in-flight ingests to finish, then closes every
// dataset's durable ledger WAL and releases its lock; every admitted
// spend was already fsynced before its admission.
// Further AddDataset calls fail with ErrClosed. Datasets with in-memory
// ledgers stay queryable; durable datasets fail closed on their next
// spend (their WAL is gone — admitting unlogged ops would violate the
// durability contract).
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	r.ingests.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	var errs []error
	for name, ds := range r.datasets {
		if ds == nil {
			continue
		}
		if err := ds.closeLedger(); err != nil {
			errs = append(errs, fmt.Errorf("serve: closing ledger of %q: %w", name, err))
		}
	}
	return errors.Join(errs...)
}

// streamFor derives the serving layer's RNG streams. The chain is
// rebuilt from the seed on every call, so the result is a pure function
// of (seed, dataset name, domain, label) — independent of call order,
// which is what makes concurrent sessions deterministic.
func (r *Registry) streamFor(dataset string, domain, label uint64) *rng.Source {
	h := fnv.New64a()
	h.Write([]byte(dataset))
	return rng.New(r.cfg.Seed).Split(h.Sum64()).Split(domain).Split(label)
}

// Ready reports whether the registry can currently serve and account
// queries: it is open, no preloaded ingest is still building, and (when
// accounting is delegated) at least one sequencer member is ready. The
// false reason is operator-facing — it names the gate that failed.
func (r *Registry) Ready() (bool, string) {
	r.mu.RLock()
	closed := r.closed
	building := 0
	for _, ds := range r.datasets {
		if ds == nil {
			building++
		}
	}
	r.mu.RUnlock()
	if closed {
		return false, "registry closed"
	}
	if building > 0 {
		return false, fmt.Sprintf("%d ingest(s) in flight", building)
	}
	if r.cfg.LedgerAddr != "" {
		if err := pingSequencer(r.cfg.LedgerAddr); err != nil {
			return false, fmt.Sprintf("ledger sequencer: %v", err)
		}
	}
	return true, "ready"
}

// Dataset returns a served dataset by name.
func (r *Registry) Dataset(name string) (*Dataset, error) {
	r.mu.RLock()
	ds, ok := r.datasets[name]
	r.mu.RUnlock()
	if !ok || ds == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	return ds, nil
}

// Names lists the served datasets. Order is unspecified; callers sort
// when they need stable output.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.datasets))
	for name, ds := range r.datasets {
		if ds != nil {
			out = append(out, name)
		}
	}
	return out
}

// RemoveDataset drops a dataset from the registry. Its sessions keep
// working against the detached state until released — except durable
// datasets, whose WAL is flushed and closed here (releasing the file
// lock so a re-ingest of the same data can reopen the same budget);
// their detached sessions fail closed on the next spend.
func (r *Registry) RemoveDataset(name string) error {
	r.mu.Lock()
	ds, ok := r.datasets[name]
	if !ok || ds == nil {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	delete(r.datasets, name)
	r.mu.Unlock()
	if err := ds.closeLedger(); err != nil {
		return fmt.Errorf("serve: closing ledger of %q: %w", name, err)
	}
	return nil
}
