// Package serve turns the one-shot release pipeline into a long-lived,
// budget-accounted, multi-tenant serving layer — the ROADMAP's "serve
// releases" shape.
//
// A Registry owns named datasets. Each dataset is cold-started from a
// bipartite.EdgeSource through the streamed two-pass
// hierarchy.BuildFromEdges, so the process never holds an O(E) graph per
// dataset — only the built Tree (degrees, permutations, cell matrices).
// Ingest runs on a bounded set of lanes. A lane is an admission slot of
// a counting semaphore: it bounds how many builds run at once and holds
// nothing between them.
//
// Every dataset carries one accountant.Ledger with the dataset's total
// (ε, δ) budget. Every query debits the ledger BEFORE any noise is
// drawn; once the budget is exhausted the dataset refuses further
// queries with accountant.ErrBudgetExceeded, forever. The audit trail
// records which session spent what.
//
// Queries run through Session handles. A session owns a
// release.Engine — the reusable Phase-2 tail, whose retained buffers
// make repeated releases allocation-free — and a private RNG
// stream derived purely from (registry seed, dataset name, data
// fingerprint, session stream id) via rng.Source.Split — the data
// fingerprint keeps a re-ingested name from replaying stale noise
// against new data. Each query then splits off its own
// child keyed by BOTH the sequence number and the query's full identity
// (kind, level, side, k), so two sessions that share a stream id but
// issue different queries never share a single draw — an adversary
// cannot difference two such responses to cancel the noise. Sessions
// with pinned stream ids replay byte-identical releases for the same
// query sequence, which is what makes concurrent serving reproducible:
// give every goroutine its own session and the interleaving cannot
// change any answer, only the ledger's admission order.
//
// Because answers are pure functions of their key, every dataset also
// carries a bounded-LRU response cache (cache.go): replaying a resident
// (stream, seq, query) key returns the byte-identical prior answer
// without debiting the ledger or re-running Phase 2 — the DP cost of
// those bytes was already paid. Concurrent replays of one key compute
// once. Config.MaxCacheEntries sizes it; re-ingests start a fresh cache.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/accountant"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/hierarchy"
	"repro/internal/partition"
	"repro/internal/query"
	"repro/internal/release"
	"repro/internal/rng"
)

// Errors returned by the registry and its sessions. Budget exhaustion
// surfaces as accountant.ErrBudgetExceeded (test with errors.Is).
var (
	ErrDatasetExists  = errors.New("serve: dataset already exists")
	ErrUnknownDataset = errors.New("serve: unknown dataset")
	ErrUnknownSession = errors.New("serve: unknown session")
	ErrClosed         = errors.New("serve: registry closed")
	ErrBadConfig      = errors.New("serve: invalid config")
)

// Stream-derivation domains: every random decision in the serving layer
// descends from rng.New(seed).Split(fnv64a(dataset)).Split(domain), so
// the phase-1 cuts and the session streams never share draws.
const (
	domainPhase1 = 1
	// domainSessions and domainAutoSessions are disjoint derivation
	// domains for SessionAt (client-pinned ids) and NewSession
	// (auto-assigned ids): an auto session can never land on a pinned
	// session's stream no matter what numeric id either carries, and
	// both id spaces stay small enough to round-trip exactly through
	// JSON doubles.
	domainSessions     = 2
	domainAutoSessions = 3
)

// Query kinds, folded into every per-query stream derivation so queries
// of different shapes can never share a draw.
const (
	queryKindView = iota + 1
	queryKindMarginal
	queryKindTopK
)

// Config configures a Registry. The zero value is not usable: Budget
// must validate. Everything else has serving defaults.
type Config struct {
	// Budget is the total (ε, δ) privacy budget of EVERY dataset added
	// to the registry; a per-dataset ledger enforces it.
	Budget dp.Params
	// PerQuery is the (ε, δ) one query consumes (a level view consumes
	// two: count + histogram). Zero defaults to Budget/64.
	PerQuery dp.Params
	// Rounds is the specialization depth of ingested hierarchies
	// (default 9, the paper's DBLP setup).
	Rounds int
	// Phase1Epsilon is the per-cut exponential-mechanism budget for
	// ingest-time specialization. Zero (default) builds the non-private
	// balanced hierarchy; positive values debit 2·Rounds·Phase1Epsilon
	// from the dataset's ledger at ingest.
	Phase1Epsilon float64
	// Model and Calib configure the Phase-2 releases (defaults: cells,
	// classical). Mechanism reports the noise mechanism of Strategy; Open
	// fills it in, and refuses a non-zero value naming another mechanism
	// with ErrBadConfig — the mechanism is chosen by naming a strategy.
	Model     core.GroupModel
	Calib     core.Calibration
	Mechanism core.NoiseMechanism
	// Strategy names the registry-wide default release strategy
	// (release.Strategies): the noise mechanism sessions answer with over
	// the paper's Phase 1, and the salt of every stream and fingerprint.
	// Empty selects release.DefaultStrategyName, the paper's quadtree +
	// Gaussian pipeline. Individual datasets may override it at
	// AddDatasetWith / the HTTP ingest request. Unknown names fail Open
	// with ErrBadConfig.
	Strategy string
	// Seed roots every RNG stream. Use rng.NewRandomSeed in production;
	// a pinned seed makes every session's releases replayable.
	Seed uint64
	// Workers parallelizes each ingest's two-pass build (both the degree
	// pass and the cell scan shard across it). Trees are identical for
	// any value.
	Workers int
	// IngestLanes bounds concurrent dataset builds (default 1). A lane
	// is an admission slot and costs nothing while idle; each build in
	// flight holds O(chunk + sides + 4^Rounds) of memory.
	IngestLanes int
	// LedgerDir enables crash-correct privacy accounting: each dataset's
	// ledger becomes an accountant.DurableLedger backed by an
	// append-only WAL under this directory, fsynced before every spend
	// is admitted (accountant.FsyncAlways: no noise is drawn for a spend
	// the WAL could still lose), and keyed by dataset name AND data
	// fingerprint — re-ingesting the same data reopens the same file
	// and replays its spent budget (exhausted stays exhausted across
	// restarts), while different data under a reused name starts a
	// fresh ledger. Empty (the default) keeps in-memory ledgers, which
	// forget every debit on restart.
	LedgerDir string
	// LedgerAddr points privacy accounting at a shared gdpledgerd
	// sequencer (host:port or http://host:port, or a comma-separated
	// member list "a:8850,b:8850,c:8850" naming every node of a
	// replicated sequencer group): each dataset's ledger becomes an
	// accountant.RemoteLedger spending against the sequencer's durable
	// budget for the (name, fingerprint) key — the deployment shape
	// where N replicas share ONE budget instead of silently multiplying
	// it. With a member list the client walks the membership on network
	// errors and primary fences, so spends survive any minority of
	// sequencer failures. Mutually exclusive with LedgerDir (durability
	// policy lives with the sequencer); setting both fails Open with
	// ErrBadConfig.
	LedgerAddr string
	// ledgerOpenWriter is the test-only fault-injection seam threaded
	// into accountant.DurableOptions.OpenWriter.
	ledgerOpenWriter func(path string) (accountant.WriteSyncer, error)
	// ledgerRemoteOptions overrides the RemoteLedger client policy
	// (test-only — fast retries against stopped sequencers).
	ledgerRemoteOptions accountant.RemoteOptions
	// MaxCacheEntries bounds each dataset's response cache: answered
	// pinned-session queries are retained by their full identity (stream
	// domain, stream id, seq, kind, level, side, k) and a replay of the
	// exact key returns the byte-identical prior answer WITHOUT debiting
	// the ledger or re-running Phase 2 — the DP cost of a cached answer
	// was already paid (see cache.go). Auto sessions bypass the cache:
	// their keys are never replayable. 0 selects DefaultMaxCacheEntries;
	// negative disables caching. Mind the memory: a cached level view
	// retains its whole cell histogram.
	MaxCacheEntries int

	// strategy is the resolved registry-wide default.
	strategy *release.Strategy
}

// withDefaults validates cfg and fills the serving defaults.
func (c Config) withDefaults() (Config, error) {
	if err := c.Budget.Validate(); err != nil {
		return Config{}, fmt.Errorf("%w: budget: %v", ErrBadConfig, err)
	}
	if c.PerQuery == (dp.Params{}) {
		c.PerQuery = dp.Params{Epsilon: c.Budget.Epsilon / 64, Delta: c.Budget.Delta / 64}
	}
	if err := c.PerQuery.Validate(); err != nil {
		return Config{}, fmt.Errorf("%w: per-query budget: %v", ErrBadConfig, err)
	}
	if c.Rounds == 0 {
		c.Rounds = 9
	}
	if c.Rounds < 1 || c.Rounds > hierarchy.MaxRounds {
		return Config{}, fmt.Errorf("%w: rounds %d outside [1,%d]", ErrBadConfig, c.Rounds, hierarchy.MaxRounds)
	}
	if c.Phase1Epsilon < 0 {
		return Config{}, fmt.Errorf("%w: negative phase-1 epsilon %v", ErrBadConfig, c.Phase1Epsilon)
	}
	strat, err := release.Strategies.Resolve(c.Strategy)
	if err != nil {
		return Config{}, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	c.strategy = strat
	if c.Model == 0 {
		c.Model = core.ModelCells
	}
	if c.Calib == 0 {
		c.Calib = core.CalibrationClassical
	}
	if c.Mechanism != 0 && c.Mechanism != strat.Mech {
		return Config{}, fmt.Errorf("%w: mechanism %s, but strategy %s releases %s noise", ErrBadConfig, c.Mechanism, strat.Name(), strat.Mech)
	}
	c.Mechanism = strat.Mech
	if c.IngestLanes == 0 {
		c.IngestLanes = 1
	}
	if c.IngestLanes < 0 {
		return Config{}, fmt.Errorf("%w: negative ingest lanes %d", ErrBadConfig, c.IngestLanes)
	}
	if c.MaxCacheEntries == 0 {
		c.MaxCacheEntries = DefaultMaxCacheEntries
	}
	if c.LedgerDir != "" && c.LedgerAddr != "" {
		return Config{}, fmt.Errorf("%w: ledger dir %q and ledger addr %q are mutually exclusive — accounting is either local-durable or delegated to a sequencer, never both", ErrBadConfig, c.LedgerDir, c.LedgerAddr)
	}
	if err := c.checkStrategy(strat); err != nil {
		return Config{}, err
	}
	return c, nil
}

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

// DatasetOptions carries per-dataset overrides of the registry
// configuration.
type DatasetOptions struct {
	// Strategy selects the release strategy this dataset is built under
	// and served with (release.Strategies). Empty inherits the
	// registry's configured strategy. Unknown names fail AddDatasetWith
	// with ErrBadConfig before any build work.
	Strategy string
}

// AddDataset cold-starts a named dataset from an edge stream under the
// registry's configured strategy: the two-pass streamed build runs on
// one ingest lane, and the dataset's ledger is opened with the configured
// budget (minus the phase-1 specialization cost when Phase1Epsilon > 0,
// debited before the build draws a single cut). The source's edges are
// never materialized — peak ingest memory is O(chunk + sides + 4^Rounds).
func (r *Registry) AddDataset(name string, src bipartite.EdgeSource) (*Dataset, error) {
	return r.AddDatasetWith(name, src, DatasetOptions{})
}

// AddDatasetWith is AddDataset with per-dataset overrides.
func (r *Registry) AddDatasetWith(name string, src bipartite.EdgeSource, opts DatasetOptions) (*Dataset, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty dataset name", ErrBadConfig)
	}
	if src == nil {
		return nil, hierarchy.ErrNilSource
	}
	strat, err := r.datasetStrategy(opts)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if err := r.ingestRefusal(name); err != nil {
		r.mu.Unlock()
		return nil, err
	}
	r.datasets[name] = nil // reserve the name while the build runs unlocked
	r.ingests.Add(1)       // under r.mu, so Close cannot miss an ingest past the closed check
	r.mu.Unlock()
	defer r.ingests.Done()

	ds, err := r.buildDataset(name, src, strat)
	r.mu.Lock()
	if err != nil {
		delete(r.datasets, name)
	} else {
		r.datasets[name] = ds
	}
	r.mu.Unlock()
	return ds, err
}

// ingestRefusal reports why no dataset called name can be added right
// now: the registry is closed, or the name is taken — served, or reserved
// by a build still running. Callers hold r.mu.
func (r *Registry) ingestRefusal(name string) error {
	if r.closed {
		return ErrClosed
	}
	if _, ok := r.datasets[name]; ok {
		return fmt.Errorf("%w: %q", ErrDatasetExists, name)
	}
	return nil
}

// checkIngest answers, without reserving anything, with the refusal
// AddDatasetWith(name, src, opts) would give whatever src holds: an
// unknown or unservable strategy, a closed registry, a taken name. It is
// advisory — the name may be taken a moment later, and AddDatasetWith's
// own check under the write lock stays the authority — and exists so a
// front end can refuse a request before it accepts the upload.
func (r *Registry) checkIngest(name string, opts DatasetOptions) error {
	if _, err := r.datasetStrategy(opts); err != nil {
		return err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ingestRefusal(name)
}

// phase1Label is the audit label of the ingest-time specialization
// debit; durable reopens look for it to avoid double-charging.
// Non-default strategies prefix it (like every other op label) with
// "strategy=<name>/" — absence of the prefix IS the default strategy,
// keeping default audit trails byte-identical to the pre-strategy
// serving layer.
const phase1Label = "ingest/phase1"

// datasetStrategy resolves a dataset's effective strategy and validates
// that this registry can actually serve it — unknown names and
// σ-incompatible per-query budgets fail here with ErrBadConfig, before
// any name is reserved or any build work starts.
func (r *Registry) datasetStrategy(opts DatasetOptions) (*release.Strategy, error) {
	strat := r.cfg.strategy
	if opts.Strategy != "" {
		s, err := release.Strategies.Resolve(opts.Strategy)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		strat = s
	}
	if err := r.cfg.checkStrategy(strat); err != nil {
		return nil, err
	}
	return strat, nil
}

// checkStrategy reports whether sessions of a dataset served under strat
// could ever answer: the strategy's noise spec must resolve a scale from
// the per-query budget. A configuration the engine can never release
// under (Gaussian noise at δ = 0, a classical calibration at εg ≥ 1)
// fails the registry at Open, or the ingest at AddDataset, instead of
// draining ledgers through post-spend engine errors; pure-ε strategies
// are where δ = 0 budgets are legitimate.
func (c Config) checkStrategy(strat *release.Strategy) error {
	if !c.Model.Valid() || !c.Calib.Valid() {
		return fmt.Errorf("%w: group model %d, calibration %d", ErrBadConfig, int(c.Model), int(c.Calib))
	}
	n := core.Noise{Mech: strat.Mech, Calib: c.Calib, Budget: c.PerQuery}
	if err := n.Validate(); err != nil {
		return fmt.Errorf("%w: per-query %s noise: %v", ErrBadConfig, strat.Mech, err)
	}
	return nil
}

// buildDataset runs the ledgered ingest, its build holding a lane.
//
// A dataset's ledger is keyed by the data fingerprint (the WAL file
// name, the sequencer key), which only exists after the build, so the
// order is: pre-check, build, open the ledger (replaying any prior
// incarnation's spends), then debit phase 1 unless the replayed trail
// already charged it. The pre-check refuses obviously over-budget
// specializations before the expensive build, and nothing is ever
// released from a dataset whose ledger refused the phase-1 debit — the
// ingest fails and the name is never served.
func (r *Registry) buildDataset(name string, src bipartite.EdgeSource, strat *release.Strategy) (*Dataset, error) {
	salt := release.StrategySalt(strat.Name())
	labelPrefix := ""
	if strat.Name() != release.DefaultStrategyName {
		labelPrefix = "strategy=" + strat.Name() + "/"
	}
	ingestLabel := labelPrefix + phase1Label

	// The ingest costs the quadtree's 2·Rounds side-depths, debited as
	// one op. The exponential-mechanism cuts draw from a phase-1 stream
	// salted per strategy, so two strategies over the same data never
	// share a cut draw; without a Phase-1 budget the balanced bisector
	// cuts for free.
	_, phase1Cost := release.PhaseCost(r.cfg.Rounds, r.cfg.Phase1Epsilon)
	charge := r.cfg.Phase1Epsilon > 0
	if charge {
		// Pre-check against an empty budget so a misconfigured
		// specialization fails before the build draws a single cut.
		if err := accountant.CheckSpend(r.cfg.Budget, dp.Params{}, phase1Cost); err != nil {
			return nil, fmt.Errorf("serve: ingest %q: %w", name, err)
		}
	}
	bisector, err := partition.ForEpsilon(r.cfg.Phase1Epsilon, r.streamFor(name, domainPhase1, salt))
	if err != nil {
		return nil, fmt.Errorf("serve: ingest %q: phase 1 bisector: %w", name, err)
	}

	r.lanes <- struct{}{}
	tree, err := hierarchy.BuildFromEdges(src, hierarchy.Options{
		Rounds:   r.cfg.Rounds,
		Bisector: bisector,
		Workers:  r.cfg.Workers,
	})
	<-r.lanes
	if err != nil {
		return nil, fmt.Errorf("serve: ingest %q: %w", name, err)
	}
	ds := &Dataset{
		reg:  r,
		name: name,
		tree: tree,
		// The strategy salt joins the fingerprint so distinct strategies
		// over identical data never share session streams or a ledger WAL;
		// the default strategy's salt is 0, keeping its fingerprints — and
		// with them WAL filenames and every session stream — exactly as
		// before the strategy seam.
		print:       fingerprintTree(tree) ^ salt,
		strat:       strat,
		labelPrefix: labelPrefix,
		// A fresh cache per ingest is the invalidation story: re-adding a
		// name (same or different data) can never serve a previous
		// incarnation's answers.
		cache: newRespCache(r.cfg.MaxCacheEntries),
	}
	if err := r.openLedger(ds); err != nil {
		return nil, fmt.Errorf("serve: ingest %q: %w", name, err)
	}
	// Reopens and replica restarts find the debit in the replayed trail
	// and do not re-charge the specialization; replicas racing the very
	// first ingest may each charge it, which errs in the only safe
	// direction (budget over-debited, never under-accounted).
	if charge && !hasOpLabeled(ds.ledger, ingestLabel) {
		if err := ds.ledger.Spend(ingestLabel, phase1Cost); err != nil {
			ds.closeLedger()
			return nil, fmt.Errorf("serve: ingest %q: %w", name, err)
		}
	}
	return ds, nil
}

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

// hasOpLabeled reports whether the ledger's trail contains an op with
// the given label (ingest-time only — it materializes the trail).
func hasOpLabeled(l accountant.Ledger, label string) bool {
	for _, op := range l.Ops() {
		if op.Label == label {
			return true
		}
	}
	return false
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

// fingerprintTree hashes the dataset as served. The finest-level cell
// matrix determines every released statistic (higher levels aggregate
// it, sensitivities derive from it), so two ingests that share a
// fingerprint answer every query identically — shared noise streams
// between them reveal nothing — while ANY data change under a reused
// dataset name re-keys every session stream. Without this term a
// dataset removed and re-added (or re-ingested after a restart with a
// pinned seed) would replay the old noise against the new data, and a
// client could difference the responses to cancel it.
func fingerprintTree(t *hierarchy.Tree) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	st := t.DatasetStats()
	put(uint64(st.NumLeft))
	put(uint64(st.NumRight))
	put(uint64(st.NumEdges))
	// Level 0 is the finest histogram; the accessor only errors on a
	// malformed tree, which BuildFromEdges cannot return.
	cells, err := t.LevelCellCountsView(0)
	if err != nil {
		panic(fmt.Sprintf("serve: fingerprinting built tree: %v", err))
	}
	put(uint64(len(cells)))
	for _, c := range cells {
		put(uint64(c))
	}
	return h.Sum64()
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

// Dataset is one served hierarchy plus its privacy ledger. All methods
// are safe for concurrent use; queries go through Sessions.
type Dataset struct {
	reg    *Registry
	name   string
	tree   *hierarchy.Tree
	ledger accountant.Ledger
	// durable is non-nil iff ledger is a WAL-backed DurableLedger
	// (Config.LedgerDir set); it carries the durability-only surface
	// (Status, Sync, Close) the Ledger interface deliberately omits.
	durable *accountant.DurableLedger
	// remote is non-nil iff ledger spends against a gdpledgerd sequencer
	// (Config.LedgerAddr set).
	remote *accountant.RemoteLedger
	print  uint64 // data fingerprint (strategy-salted) folded into every session stream
	// strat is the strategy the dataset was built under and serves
	// with; labelPrefix the "strategy=…/" audit prefix (empty for the
	// default strategy, whose trail must stay byte-identical to the
	// pre-strategy serving layer).
	strat       *release.Strategy
	labelPrefix string
	cache       *respCache
	nextID      atomic.Uint64
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

// CacheStats reports the dataset's response-cache counters.
func (d *Dataset) CacheStats() CacheStats { return d.cache.stats() }

// Name returns the registry key.
func (d *Dataset) Name() string { return d.name }

// Strategy returns the name of the release strategy the dataset was
// built under and is served with.
func (d *Dataset) Strategy() string { return d.strat.Name() }

// Stats summarizes the ingested dataset (computed once, at build, from
// the streamed degrees — no graph was ever resident; a call is a field
// read).
func (d *Dataset) Stats() bipartite.Stats { return d.tree.DatasetStats() }

// MaxLevel returns the hierarchy's root level; queryable levels are
// 0..MaxLevel.
func (d *Dataset) MaxLevel() int { return d.tree.MaxLevel() }

// Tree exposes the curator-side hierarchy (evaluation tooling only —
// it is not part of any served answer).
func (d *Dataset) Tree() *hierarchy.Tree { return d.tree }

// Budget, Spent and Remaining report the ledger state.
func (d *Dataset) Budget() dp.Params    { return d.ledger.Budget() }
func (d *Dataset) Spent() dp.Params     { return d.ledger.Spent() }
func (d *Dataset) Remaining() dp.Params { return d.ledger.Remaining() }

// AuditReport renders the ledger's audit trail.
func (d *Dataset) AuditReport() string { return d.ledger.AuditReport() }

// Ops returns the ledger's audit trail.
func (d *Dataset) Ops() []accountant.Op { return d.ledger.Ops() }

// OpCount returns the number of admitted ledger operations without
// materializing the audit trail.
func (d *Dataset) OpCount() int { return d.ledger.OpCount() }

// NewSession returns a session on the next auto-assigned stream id.
// Auto sessions derive their noise from a stream domain disjoint from
// SessionAt's, so no pinned id can ever land on an auto session's
// stream (and vice versa); their ids are unique per dataset but depend
// on allocation order, so pin ids with SessionAt when replayability
// matters.
func (d *Dataset) NewSession() *Session {
	return d.session(d.nextID.Add(1)-1, domainAutoSessions, false)
}

// SessionAt returns a session on a pinned stream id. Two pinned
// sessions with the same stream id (across restarts, across replicas
// with one seed) draw identical noise for identical query sequences
// against identical data — the replay contract; re-ingesting different
// data under the same name re-keys the streams (see fingerprintTree).
// Sharing a stream id leaks nothing beyond the replay itself: queries
// that differ in kind or parameters derive disjoint noise streams (see
// querySource). Re-running a sequence costs budget again only when the
// key has left the response cache: replays resident in the dataset's
// cache are served without a debit — their DP cost was already paid —
// while evicted or never-cached keys recompute and debit (cache.go).
func (d *Dataset) SessionAt(stream uint64) *Session {
	return d.session(stream, domainSessions, true)
}

// session constructs a handle on one (domain, stream id) noise stream.
func (d *Dataset) session(stream, domain uint64, pinned bool) *Session {
	eng, err := release.NewEngine(d.reg.cfg.Model, d.reg.cfg.Calib, d.strat.Mech)
	if err != nil {
		// withDefaults and datasetStrategy pre-validated the engine
		// configuration.
		panic(fmt.Sprintf("serve: engine config became invalid: %v", err))
	}
	// The data fingerprint joins the chain so a re-ingested name never
	// replays a previous ingest's noise against different data.
	return &Session{
		ds:     d,
		stream: stream,
		domain: domain,
		pinned: pinned,
		src:    d.reg.streamFor(d.name, domain, stream).Split(d.print),
		eng:    eng,
	}
}

// Session is one tenant's query handle: a reusable release engine, a
// private pre-split RNG stream, and the scratch buffers of the query
// tail — the per-query stream chain, the ledger label, and the
// marginal/top-k result vectors. Everything a steady-state query touches
// is retained here, so after warm-up a Marginal or TopK performs zero
// heap allocations end to end. A marginal or top-k query leaves one
// noise-chunk window in the engine (release.Engine.Marginal), not the
// level's cell histogram; only a level view keeps a histogram buffer.
// A Session is NOT safe for concurrent use — open one per goroutine;
// sessions of one dataset may run fully in parallel.
type Session struct {
	ds     *Dataset
	stream uint64
	domain uint64
	pinned bool
	seq    uint64
	src    *rng.Source
	eng    *release.Engine

	// qsrc and qsub are the per-query stream-derivation scratch: the
	// Split chain collapses through them in place (rng.Source.SplitTo)
	// instead of allocating a Source per link.
	qsrc, qsub rng.Source
	// label is the ledger-label assembly buffer (accountant.SpendBytes).
	label []byte
	// marginals, topk and topkOut back the slices Marginal and TopK
	// return on a cache hit (a computed marginal is the engine's); all
	// are overwritten by the session's next query.
	marginals []float64
	topk      query.TopKScratch
	topkOut   []int
}

// useCache reports whether this session's queries go through the
// dataset's response cache. Only pinned sessions participate: an auto
// session's stream id is unique for the dataset's lifetime and its seq
// only grows, so its keys can never be replayed — caching them would
// spend LRU capacity (and, for level views, whole retained histograms)
// on entries that evict the pinned replays the cache exists for.
func (s *Session) useCache() bool { return s.pinned && s.ds.cache.enabled() }

// cacheKeyFor is the query's full identity in the dataset's response
// cache — the same tuple the per-query stream derivation folds in, so
// equal keys imply byte-identical answers.
func (s *Session) cacheKeyFor(kind, level int, side bipartite.Side, k int) cacheKey {
	return cacheKey{
		domain: s.domain,
		stream: s.stream,
		seq:    s.seq,
		kind:   uint8(kind),
		level:  int32(level),
		side:   uint8(side),
		k:      int32(k),
	}
}

// serveCached is the one implementation of the cache singleflight
// protocol every query kind runs: acquire the key; as owner, compute
// (debiting the ledger) and publish into the entry before waking
// waiters; as waiter, wait — retrying if the owner aborted — and on a
// hit consume the seq slot and advance the session stream exactly as
// computing would have, WITHOUT a ledger debit. It returns the resident
// entry on a hit and nil after an owner compute, so callers load the
// payload without passing a third closure (keeping the hit path
// allocation-free).
func (s *Session) serveCached(key cacheKey, compute func() error, publish func(*cacheEntry)) (*cacheEntry, error) {
	c := s.ds.cache
	for {
		e, owner := c.acquire(key)
		if owner {
			if err := compute(); err != nil {
				c.abort(e)
				return nil, err
			}
			publish(e)
			c.complete(e)
			return nil, nil
		}
		<-e.ready
		if !e.ok {
			continue // owner aborted; retry (one waiter becomes owner)
		}
		s.advance()
		return e, nil
	}
}

// Dataset returns the session's dataset.
func (s *Session) Dataset() *Dataset { return s.ds }

// Stream returns the session's stream id. Pinned and auto sessions
// number their streams independently (disjoint derivation domains), so
// ids are only comparable between sessions of the same kind.
func (s *Session) Stream() uint64 { return s.stream }

// Pinned reports whether the session's stream id was pinned by the
// caller (SessionAt) — the replayable kind — or auto-assigned.
func (s *Session) Pinned() bool { return s.pinned }

// Seq returns the next query sequence number.
func (s *Session) Seq() uint64 { return s.seq }

// LevelView is one privilege tier's served answer: the noisy
// association count and the noisy cell histogram of the level — the
// serving analogue of release.View.
type LevelView struct {
	Level int               `json:"level"`
	Count core.LevelRelease `json:"count"`
	// Cells points into the session's reusable buffer: it is valid
	// until the session's next query (serialize or copy to retain).
	Cells *core.CellRelease `json:"cells"`
}

// advance consumes the session's next query slot: its seq number and
// the parent stream's one draw, the fork point of the slot's Split
// chain. A cache hit consumes its slot with this alone; querySource
// derives the chain from what it returns.
func (s *Session) advance() (rng.Fork, uint64) {
	seq := s.seq
	s.seq++
	return s.src.Fork(), seq
}

// querySource advances the session to its next per-query stream.
// Every query owns a Split chain keyed by its sequence number AND its
// full identity — one Split level per parameter, so distinct tuples
// take distinct paths through the stream tree with no hashing step to
// collide — and a query's draws depend only on (seed, dataset, stream,
// seq, kind, level, side, k), never on other sessions. Without the
// identity terms, two sessions pinned to one stream could issue
// different queries at the same seq, draw the same underlying variates,
// and let a client difference the responses to cancel the noise.
// The chain collapses in place through the session's scratch Source
// (values identical to the allocating Split chain); the returned
// pointer is invalidated by the session's next query.
func (s *Session) querySource(kind, level int, side bipartite.Side, k int) *rng.Source {
	fork, seq := s.advance()
	q := &s.qsrc
	fork.StreamTo(q, seq)
	q.SplitTo(q, uint64(kind))
	q.SplitTo(q, uint64(level))
	q.SplitTo(q, uint64(side))
	q.SplitTo(q, uint64(k))
	return q
}

// spend debits the ledger, labeling the op with this session's stream
// and the query's sequence number. It is the gate in front of every
// noise draw: on ErrBudgetExceeded nothing has been sampled and the
// sequence number has not advanced. Everything the release engine
// could reject (level, side, k, the per-query params) is validated
// before spend is called; in the unreachable case of an engine error
// after a successful spend, the serving layer fails closed — the
// budget and the seq slot stay consumed, and nothing is refunded for a
// draw that may already have happened.
func (s *Session) spend(what string, level int, cost dp.Params) error {
	// Pinned ("s") and auto ("a") sessions number streams in disjoint
	// domains; the prefix keeps their audit labels unambiguous. The
	// label is assembled in the session's scratch and copied into the
	// ledger's arena — no per-query string allocation. Non-default
	// strategies lead with "strategy=<name>/" so the trail records what
	// plan answered; the default's labels stay byte-identical to the
	// pre-strategy serving layer.
	prefix := byte('s')
	if !s.pinned {
		prefix = 'a'
	}
	b := append(s.label[:0], s.ds.labelPrefix...)
	b = append(b, prefix)
	b = strconv.AppendUint(b, s.stream, 10)
	b = append(b, "/q"...)
	b = strconv.AppendUint(b, s.seq, 10)
	b = append(b, '/')
	b = append(b, what...)
	b = append(b, "/level"...)
	b = strconv.AppendInt(b, int64(level), 10)
	s.label = b
	if err := s.ds.ledger.SpendBytes(b, cost); err != nil {
		return fmt.Errorf("serve: %s on %q: %w", what, s.ds.name, err)
	}
	return nil
}

// checkLevel validates the level before any budget is spent.
func (s *Session) checkLevel(level int) error {
	_, err := s.ds.tree.DepthOfLevel(level)
	return err
}

// ReleaseLevel serves a level view: the εg-group-DP association count
// and the level's noisy cell histogram. It debits 2·PerQuery (count +
// histogram are two mechanism invocations) as one atomic ledger op.
// A response-cache hit on the full query identity returns the
// byte-identical prior answer without debiting the ledger (cache.go).
func (s *Session) ReleaseLevel(level int) (LevelView, error) {
	if err := s.checkLevel(level); err != nil {
		return LevelView{}, err
	}
	if s.useCache() {
		var view LevelView
		e, err := s.serveCached(s.cacheKeyFor(queryKindView, level, 0, 0),
			func() (err error) { view, err = s.releaseLevelCompute(level); return err },
			func(e *cacheEntry) {
				e.view = &cachedView{count: view.Count, cells: release.CloneCellRelease(*view.Cells)}
			})
		if err != nil {
			return LevelView{}, err
		}
		if e != nil { // hit: rehydrate through the session's engine buffer
			return LevelView{Level: level, Count: e.view.count, Cells: s.eng.LoadCells(&e.view.cells)}, nil
		}
		return view, nil
	}
	return s.releaseLevelCompute(level)
}

// releaseLevelCompute is the ledgered Phase-2 path of ReleaseLevel.
func (s *Session) releaseLevelCompute(level int) (LevelView, error) {
	pq := s.ds.reg.cfg.PerQuery
	cost := dp.Params{Epsilon: 2 * pq.Epsilon, Delta: 2 * pq.Delta}
	if err := s.spend("view", level, cost); err != nil {
		return LevelView{}, err
	}
	qsrc := s.querySource(queryKindView, level, 0, 0)
	qsrc.SplitTo(&s.qsub, 0)
	count, err := s.eng.Count(s.ds.tree, level, pq, &s.qsub)
	if err != nil {
		return LevelView{}, err
	}
	qsrc.SplitTo(&s.qsub, 1)
	cells, err := s.eng.Cells(s.ds.tree, level, pq, &s.qsub)
	if err != nil {
		return LevelView{}, err
	}
	// A tier receives the publishable form: the exact count and the
	// error rate computed from it stay with the curator. The cached view
	// is built from this one, so replays are stripped too.
	return LevelView{Level: level, Count: count.OmitTrue(), Cells: cells}, nil
}

// Marginal serves the per-side-group association counts of a level: one
// fresh PerQuery histogram draw, post-processed (free) into row or
// column sums. The returned slice points into the session's reusable
// scratch — like LevelView.Cells, it is valid until the session's next
// query; copy to retain.
func (s *Session) Marginal(level int, side bipartite.Side) ([]float64, error) {
	m, hit, err := s.marginal(level, side)
	if hit != nil { // copy into the session's reusable scratch
		s.marginals = append(s.marginals[:0], m...)
		return s.marginals, nil
	}
	return m, err
}

// marginal is Marginal that also returns the entry of a cache hit; the
// answer it returns on a hit is the entry's own, which the caller must
// not modify.
func (s *Session) marginal(level int, side bipartite.Side) ([]float64, *cacheEntry, error) {
	if err := s.checkLevel(level); err != nil {
		return nil, nil, err
	}
	if !side.Valid() {
		return nil, nil, fmt.Errorf("serve: invalid side %v", side)
	}
	if s.useCache() {
		var m []float64
		e, err := s.serveCached(s.cacheKeyFor(queryKindMarginal, level, side, 0),
			func() (err error) { m, err = s.marginalCompute(level, side); return err },
			func(e *cacheEntry) { e.marginals = append([]float64(nil), m...) })
		if err != nil {
			return nil, nil, err
		}
		if e != nil {
			return e.marginals, e, nil
		}
		return m, nil, nil
	}
	m, err := s.marginalCompute(level, side)
	return m, nil, err
}

// marginalCompute is the ledgered Phase-2 path of Marginal.
func (s *Session) marginalCompute(level int, side bipartite.Side) ([]float64, error) {
	if err := s.spend("marginal", level, s.ds.reg.cfg.PerQuery); err != nil {
		return nil, err
	}
	return s.eng.Marginal(s.ds.tree, level, side, s.ds.reg.cfg.PerQuery, s.querySource(queryKindMarginal, level, side, 0))
}

// TopK serves the k heaviest side groups of a level according to one
// fresh PerQuery histogram draw (heavy-hitter identification with the
// ranking as free post-processing). The returned slice points into the
// session's reusable scratch — valid until the session's next query;
// copy to retain.
func (s *Session) TopK(level int, side bipartite.Side, k int) ([]int, error) {
	groups, hit, err := s.topK(level, side, k)
	if hit != nil { // copy into the session's reusable scratch
		s.topkOut = append(s.topkOut[:0], groups...)
		return s.topkOut, nil
	}
	return groups, err
}

// topK is TopK that also returns the entry of a cache hit; the answer
// it returns on a hit is the entry's own, which the caller must not
// modify.
func (s *Session) topK(level int, side bipartite.Side, k int) ([]int, *cacheEntry, error) {
	if err := s.checkLevel(level); err != nil {
		return nil, nil, err
	}
	if !side.Valid() {
		return nil, nil, fmt.Errorf("serve: invalid side %v", side)
	}
	n, err := s.ds.tree.NumSideGroups(level)
	if err != nil {
		return nil, nil, err
	}
	if k <= 0 || k > n {
		return nil, nil, fmt.Errorf("serve: k=%d outside [1,%d]", k, n)
	}
	if s.useCache() {
		var groups []int
		e, err := s.serveCached(s.cacheKeyFor(queryKindTopK, level, side, k),
			func() (err error) { groups, err = s.topKCompute(level, side, k); return err },
			func(e *cacheEntry) { e.topk = append([]int(nil), groups...) })
		if err != nil {
			return nil, nil, err
		}
		if e != nil {
			return e.topk, e, nil
		}
		return groups, nil, nil
	}
	groups, err := s.topKCompute(level, side, k)
	return groups, nil, err
}

// topKCompute is the ledgered Phase-2 path of TopK.
func (s *Session) topKCompute(level int, side bipartite.Side, k int) ([]int, error) {
	if err := s.spend("topk", level, s.ds.reg.cfg.PerQuery); err != nil {
		return nil, err
	}
	m, err := s.eng.Marginal(s.ds.tree, level, side, s.ds.reg.cfg.PerQuery, s.querySource(queryKindTopK, level, side, k))
	if err != nil {
		return nil, err
	}
	return query.TopKOfMarginalsInto(&s.topk, m, k)
}
