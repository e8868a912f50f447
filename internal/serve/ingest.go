package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/accountant"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/hierarchy"
	"repro/internal/partition"
	"repro/internal/release"
)

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
