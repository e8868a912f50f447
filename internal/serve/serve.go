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
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/accountant"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/hierarchy"
	"repro/internal/release"
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
