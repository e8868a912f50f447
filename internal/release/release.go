// Package release runs the paper's end-to-end two-phase disclosure
// pipeline:
//
//	Phase 1 — specialization: build the multi-level group hierarchy with
//	exponential-mechanism cuts (internal/partition, internal/hierarchy).
//	Phase 2 — noise injection: release εg-group-DP answers per level
//	(internal/core), with Gaussian noise calibrated to each level's group
//	sensitivity.
//
// A Pipeline is configured once with functional options and can be run on
// any graph. The Release artifact carries the per-level noisy answers, the
// hierarchy's level profiles, and a complete privacy-accounting audit
// trail; ViewFor models the paper's access tiers (a privilege-i user sees
// the release protected at group level i).
package release

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/accountant"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/hierarchy"
	"repro/internal/partition"
	"repro/internal/rng"
)

// Mode selects how the global εg budget maps to the per-level releases.
type Mode int

// Budget modes.
//
// ModePerLevel is the paper's reading: every information level consumes
// the full (εg, δ) and releases to different privilege tiers are accounted
// in parallel (each data user receives exactly one level).
//
// ModeComposedBasic splits (εg, δ) uniformly across all queries under
// basic sequential composition, for the setting where one user may obtain
// every level.
//
// ModeComposedAdvanced does the same under the advanced composition
// theorem, which affords each query a larger share for many levels
// (ablation A1).
//
// ModeComposedRDP composes through a Rényi-DP accountant: every query's
// Gaussian noise is scaled to its own sensitivity so each consumes an
// equal RDP share, and the total converts to (εg, δ). Tightest of the
// composed modes for Gaussian-only workloads; requires δ > 0 and the
// Gaussian mechanism.
const (
	ModePerLevel Mode = iota + 1
	ModeComposedBasic
	ModeComposedAdvanced
	ModeComposedRDP
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModePerLevel:
		return "per-level"
	case ModeComposedBasic:
		return "composed-basic"
	case ModeComposedAdvanced:
		return "composed-advanced"
	case ModeComposedRDP:
		return "composed-rdp"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Valid reports whether m is a known mode.
func (m Mode) Valid() bool {
	switch m {
	case ModePerLevel, ModeComposedBasic, ModeComposedAdvanced, ModeComposedRDP:
		return true
	default:
		return false
	}
}

// Errors returned by the pipeline.
var (
	ErrNilGraph  = errors.New("release: nil graph")
	ErrNilSource = errors.New("release: nil edge source")
	ErrBadOption = errors.New("release: invalid option")
)

type config struct {
	budget         dp.Params
	rounds         int
	levels         []int
	mode           Mode
	model          core.GroupModel
	calib          core.Calibration
	mechanism      core.NoiseMechanism
	mechSet        bool
	strategy       *Strategy
	phase1Epsilon  float64
	cellHistograms bool
	seed           uint64
	workers        int
}

// Option configures a Pipeline.
type Option func(*config) error

// WithRounds sets the number of specialization rounds (hierarchy depth).
// Default 9, the paper's DBLP setup.
func WithRounds(n int) Option {
	return func(c *config) error {
		if n < 1 || n > hierarchy.MaxRounds {
			return fmt.Errorf("%w: rounds %d outside [1,%d]", ErrBadOption, n, hierarchy.MaxRounds)
		}
		c.rounds = n
		return nil
	}
}

// WithLevels sets the information levels to release. Default 0..rounds−2
// (the paper's I9,0..I9,7 for nine rounds).
func WithLevels(levels []int) Option {
	return func(c *config) error {
		if len(levels) == 0 {
			return fmt.Errorf("%w: empty level list", ErrBadOption)
		}
		c.levels = append([]int(nil), levels...)
		return nil
	}
}

// WithMode sets the budget mode. Default ModePerLevel.
func WithMode(m Mode) Option {
	return func(c *config) error {
		if !m.Valid() {
			return fmt.Errorf("%w: mode %d", ErrBadOption, int(m))
		}
		c.mode = m
		return nil
	}
}

// WithModel sets the group-adjacency model. Default core.ModelCells.
func WithModel(m core.GroupModel) Option {
	return func(c *config) error {
		if !m.Valid() {
			return fmt.Errorf("%w: model %d", ErrBadOption, int(m))
		}
		c.model = m
		return nil
	}
}

// WithCalibration sets the Gaussian calibration. Default
// core.CalibrationClassical (the paper's).
func WithCalibration(cal core.Calibration) Option {
	return func(c *config) error {
		if !cal.Valid() {
			return fmt.Errorf("%w: calibration %d", ErrBadOption, int(cal))
		}
		c.calib = cal
		return nil
	}
}

// WithMechanism overrides the strategy's count-release noise mechanism
// (ablation A2). Default: whatever the active strategy composes —
// core.MechGaussian for the paper's pipeline. The cell-histogram
// mechanism always follows the strategy's noise stage.
func WithMechanism(m core.NoiseMechanism) Option {
	return func(c *config) error {
		if !m.Valid() {
			return fmt.Errorf("%w: mechanism %d", ErrBadOption, int(m))
		}
		c.mechanism = m
		c.mechSet = true
		return nil
	}
}

// WithStrategy selects a built-in release strategy by name — the noise
// stage the pipeline runs after the paper's Phase 1.
// The empty name selects the default (the paper's quadtree + Gaussian
// pipeline); unknown names fail here with ErrUnknownStrategy, never as
// a late failure inside a run.
func WithStrategy(name string) Option {
	return func(c *config) error {
		s, err := Strategies.Resolve(name)
		if err != nil {
			return err
		}
		c.strategy = s
		return nil
	}
}

// WithPhase1Epsilon sets the per-cut exponential-mechanism budget for
// Phase 1. Zero (the default) uses the non-private balanced bisector,
// which models a curator who considers the grouping public.
func WithPhase1Epsilon(eps float64) Option {
	return func(c *config) error {
		if eps < 0 {
			return fmt.Errorf("%w: negative phase-1 epsilon %v", ErrBadOption, eps)
		}
		c.phase1Epsilon = eps
		return nil
	}
}

// WithCellHistograms also releases each level's noisy cell histogram (the
// paper's "noise injected into the subgraphs induced by each group
// level"), doubling the per-level query count.
func WithCellHistograms(enabled bool) Option {
	return func(c *config) error {
		c.cellHistograms = enabled
		return nil
	}
}

// WithSeed fixes the random seed. Default 1. Use rng.NewRandomSeed for
// production releases.
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		c.seed = seed
		return nil
	}
}

// WithWorkers parallelizes Phase-1 range preparation across n goroutines.
// The result is identical for any worker count.
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("%w: negative workers %d", ErrBadOption, n)
		}
		c.workers = n
		return nil
	}
}

// Pipeline is a configured two-phase discloser.
type Pipeline struct {
	cfg config
}

// New validates the options and returns a Pipeline. budget is the global
// (εg, δ) group-privacy budget.
func New(budget dp.Params, opts ...Option) (*Pipeline, error) {
	if err := budget.Validate(); err != nil {
		return nil, err
	}
	cfg := config{
		budget:    budget,
		rounds:    9,
		mode:      ModePerLevel,
		model:     core.ModelCells,
		calib:     core.CalibrationClassical,
		mechanism: core.MechGaussian,
		seed:      1,
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.strategy == nil {
		s, err := Strategies.Resolve("")
		if err != nil {
			return nil, err
		}
		cfg.strategy = s
	}
	if cfg.levels == nil {
		hi := cfg.rounds - 2
		if hi < 0 {
			hi = 0
		}
		for lvl := 0; lvl <= hi; lvl++ {
			cfg.levels = append(cfg.levels, lvl)
		}
	}
	// A repeated level would be charged twice and released twice, and
	// ReadJSON refuses the artifact that carries it.
	seen := make(map[int]bool, len(cfg.levels))
	for _, lvl := range cfg.levels {
		if lvl < 0 || lvl > cfg.rounds {
			return nil, fmt.Errorf("%w: level %d outside [0,%d]", ErrBadOption, lvl, cfg.rounds)
		}
		if seen[lvl] {
			return nil, fmt.Errorf("%w: level %d listed twice", ErrBadOption, lvl)
		}
		seen[lvl] = true
	}
	return &Pipeline{cfg: cfg}, nil
}

// View is what one privilege tier receives.
type View struct {
	// Level is the protected group level.
	Level int `json:"level"`
	// Count is the noisy association count for this tier.
	Count core.LevelRelease `json:"count"`
	// Cells is the tier's noisy subgraph histogram when the pipeline was
	// run with WithCellHistograms.
	Cells *core.CellRelease `json:"cells,omitempty"`
}

// Release is the published multi-level artifact plus its audit trail.
type Release struct {
	// Dataset summarizes the input graph.
	Dataset bipartite.Stats `json:"dataset"`
	// Seed, ModeName, ModelName and CalibName record the configuration.
	Seed      uint64 `json:"seed"`
	ModeName  string `json:"mode"`
	ModelName string `json:"model"`
	CalibName string `json:"calibration"`
	MechName  string `json:"mechanism"`
	// Strategy names the release strategy when it is not the default,
	// keeping default artifacts byte-identical to the pre-strategy
	// engine.
	Strategy string `json:"strategy,omitempty"`
	Rounds   int    `json:"rounds"`
	// Budget is the configured global (εg, δ).
	BudgetEpsilon float64 `json:"budget_epsilon"`
	BudgetDelta   float64 `json:"budget_delta"`
	// Phase1Epsilon is the total specialization cost (2·rounds·per-cut ε
	// under parallel composition within each side-depth).
	Phase1Epsilon float64 `json:"phase1_epsilon"`
	// SequentialCost is the basic composition of every Phase-2 query, the
	// honest total if one user obtained all levels. ParallelCost is the
	// per-tier cost under the paper's access model.
	SequentialCostEpsilon float64 `json:"sequential_cost_epsilon"`
	SequentialCostDelta   float64 `json:"sequential_cost_delta"`
	ParallelCostEpsilon   float64 `json:"parallel_cost_epsilon"`
	ParallelCostDelta     float64 `json:"parallel_cost_delta"`
	// Profiles summarizes the hierarchy per level, root first.
	Profiles []hierarchy.LevelProfile `json:"profiles"`
	// Counts holds the per-level noisy count releases.
	Counts core.MultiLevelRelease `json:"counts"`
	// Cells holds the optional per-level histogram releases.
	Cells []core.CellRelease `json:"cells,omitempty"`
	// Audit is the privacy ledger trail.
	Audit []accountant.Op `json:"-"`

	tree *hierarchy.Tree
}

// Tree exposes the built hierarchy for evaluation tooling (the tree
// itself is curator-side state, not part of the published artifact).
func (r *Release) Tree() *hierarchy.Tree { return r.tree }

// Run executes both phases on g.
func (p *Pipeline) Run(g *bipartite.Graph) (*Release, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	phase1Src, phase2Src := p.splitSources()
	opts, err := p.hierarchyOptions(phase1Src)
	if err != nil {
		return nil, err
	}
	tree, err := hierarchy.Build(g, opts)
	if err != nil {
		return nil, fmt.Errorf("release: phase 1: %w", err)
	}
	return p.finish(tree, phase2Src)
}

// RunFromEdges executes both phases over a chunked edge stream: Phase 1
// runs through hierarchy.BuildFromEdges (two passes over the source, peak
// memory O(chunk + sides), never a materialized Graph) and Phase 2 is the
// usual noise injection on the resulting tree. The artifact is
// bit-identical to Run on a Graph holding the same associations — the
// dataset summary included, which is computed from the degrees captured
// during pass 1.
func (p *Pipeline) RunFromEdges(src bipartite.EdgeSource) (*Release, error) {
	if src == nil {
		return nil, ErrNilSource
	}
	phase1Src, phase2Src := p.splitSources()
	opts, err := p.hierarchyOptions(phase1Src)
	if err != nil {
		return nil, err
	}
	tree, err := hierarchy.BuildFromEdges(src, opts)
	if err != nil {
		return nil, fmt.Errorf("release: phase 1: %w", err)
	}
	return p.finish(tree, phase2Src)
}

// splitSources derives the two phase RNG streams from the seed. The
// strategy salt (zero for the default strategy, so its streams are
// untouched) is folded in first, so two strategies over the same data
// and seed never share a noise draw.
func (p *Pipeline) splitSources() (phase1, phase2 *rng.Source) {
	src := rng.New(p.cfg.seed)
	if salt := StrategySalt(p.cfg.strategy.Name()); salt != 0 {
		src = src.Split(salt)
	}
	return src.Split(1), src.Split(2)
}

// countMechanism resolves the effective count-release mechanism: the
// explicit WithMechanism override when set, the strategy's noise stage
// otherwise.
func (p *Pipeline) countMechanism() core.NoiseMechanism {
	if p.cfg.mechSet {
		return p.cfg.mechanism
	}
	return p.cfg.strategy.Noise.Count
}

// hierarchyOptions assembles the Phase-1 build options: the
// exponential-mechanism bisector on the phase-1 stream when a Phase-1
// budget is set, the public balanced bisector otherwise.
func (p *Pipeline) hierarchyOptions(phase1Src *rng.Source) (hierarchy.Options, error) {
	opts := hierarchy.Options{
		Rounds:   p.cfg.rounds,
		Bisector: partition.BalancedBisector{},
		Workers:  p.cfg.workers,
	}
	if p.cfg.phase1Epsilon > 0 {
		b, err := partition.NewExpMechBisector(p.cfg.phase1Epsilon, phase1Src)
		if err != nil {
			return hierarchy.Options{}, fmt.Errorf("release: phase 1 bisector: %w", err)
		}
		opts.Bisector = b
	}
	return opts, nil
}

// finish runs Phase 2 and assembles the artifact from a built tree — the
// shared tail of Run and RunFromEdges. The per-level releases go through
// one Engine, the same component a serving session reuses per query.
func (p *Pipeline) finish(tree *hierarchy.Tree, phase2Src *rng.Source) (*Release, error) {
	cfg := p.cfg
	strat := cfg.strategy
	var err error

	// Phase 1 is charged when the build actually consumed budget: a
	// Phase-1 ε is set and the tree recorded private cuts.
	var phase1Ops []PhaseOp
	var phase1Cost dp.Params
	if cfg.phase1Epsilon > 0 && tree.NumPrivateCuts() > 0 {
		phase1Ops, phase1Cost = PhaseCost(cfg.rounds, cfg.phase1Epsilon)
	}
	phase1Eps := phase1Cost.Epsilon

	var perQuery []dp.Params
	var sigmas []float64
	if cfg.mode == ModeComposedRDP {
		perQuery, sigmas, err = p.rdpPlan(tree)
	} else {
		perQuery, err = p.perQueryBudgets()
	}
	if err != nil {
		return nil, err
	}

	// The ledger guards the worst-case sequential total; per-level mode
	// deliberately overshoots a single εg, which the artifact reports as
	// ParallelCost vs SequentialCost.
	var ledgerBudget dp.Params
	ledgerBudget.Epsilon = phase1Cost.Epsilon
	ledgerBudget.Delta = phase1Cost.Delta
	for _, q := range perQuery {
		ledgerBudget.Epsilon += q.Epsilon
		ledgerBudget.Delta += q.Delta
	}
	ledger, err := accountant.NewLedger(ledgerBudget)
	if err != nil {
		return nil, fmt.Errorf("release: ledger: %w", err)
	}
	for _, op := range phase1Ops {
		if err := ledger.Spend(op.Label, op.Cost); err != nil {
			return nil, fmt.Errorf("release: accounting phase 1: %w", err)
		}
	}

	countMech := p.countMechanism()
	strategyName := ""
	if strat.Name() != DefaultStrategyName {
		strategyName = strat.Name()
	}
	rel := &Release{
		Dataset:       tree.DatasetStats(),
		Seed:          cfg.seed,
		ModeName:      cfg.mode.String(),
		ModelName:     cfg.model.String(),
		CalibName:     cfg.calib.String(),
		MechName:      countMech.String(),
		Strategy:      strategyName,
		Rounds:        cfg.rounds,
		BudgetEpsilon: cfg.budget.Epsilon,
		BudgetDelta:   cfg.budget.Delta,
		Phase1Epsilon: phase1Eps,
		Counts:        core.MultiLevelRelease{MaxLevel: tree.MaxLevel()},
		tree:          tree,
	}
	for lvl := tree.MaxLevel(); lvl >= 0; lvl-- {
		prof, err := tree.Profile(lvl)
		if err != nil {
			return nil, fmt.Errorf("release: profiling level %d: %w", lvl, err)
		}
		rel.Profiles = append(rel.Profiles, prof)
	}

	eng, err := NewEngine(cfg.model, cfg.calib, countMech)
	if err != nil {
		return nil, err
	}
	if err := eng.SetCellMechanism(strat.Noise.Cells); err != nil {
		return nil, err
	}
	// The pipeline's Workers option shards each histogram's noise pass
	// too; releases are bit-identical for any value.
	eng.SetWorkers(cfg.workers)
	qi := 0
	for _, lvl := range cfg.levels {
		budget := perQuery[qi]
		var count core.LevelRelease
		if sigmas != nil {
			count, err = eng.CountSigma(tree, lvl, sigmas[qi], budget, phase2Src.Split(uint64(lvl)))
		} else {
			count, err = eng.Count(tree, lvl, budget, phase2Src.Split(uint64(lvl)))
		}
		if err != nil {
			return nil, fmt.Errorf("release: phase 2 count at level %d: %w", lvl, err)
		}
		qi++
		if err := ledger.Spend(fmt.Sprintf("phase2/count/level%d", lvl), budget); err != nil {
			return nil, fmt.Errorf("release: accounting level %d: %w", lvl, err)
		}
		rel.Counts.Levels = append(rel.Counts.Levels, count)

		if cfg.cellHistograms {
			budget := perQuery[qi]
			var cells *core.CellRelease
			if sigmas != nil {
				cells, err = eng.CellsSigma(tree, lvl, sigmas[qi], budget, phase2Src.Split(1000+uint64(lvl)))
			} else {
				cells, err = eng.Cells(tree, lvl, budget, phase2Src.Split(1000+uint64(lvl)))
			}
			if err != nil {
				return nil, fmt.Errorf("release: phase 2 cells at level %d: %w", lvl, err)
			}
			qi++
			if err := ledger.Spend(fmt.Sprintf("phase2/cells/level%d", lvl), budget); err != nil {
				return nil, fmt.Errorf("release: accounting cells %d: %w", lvl, err)
			}
			rel.Cells = append(rel.Cells, CloneCellRelease(*cells))
		}
	}

	costs := make([]dp.Params, len(perQuery))
	copy(costs, perQuery)
	seq, err := accountant.ComposeBasic(costs)
	if err != nil {
		return nil, fmt.Errorf("release: composing costs: %w", err)
	}
	par, err := accountant.ComposeParallel(costs)
	if err != nil {
		return nil, fmt.Errorf("release: composing costs: %w", err)
	}
	rel.SequentialCostEpsilon = phase1Eps + seq.Epsilon
	rel.SequentialCostDelta = seq.Delta
	if cfg.mode == ModeComposedRDP {
		// The RDP accountant composes the Gaussian queries tighter than
		// the basic sum of their individual budgets: the whole Phase 2 is
		// (εg, δ)-DP by calibration.
		rel.SequentialCostEpsilon = phase1Eps + cfg.budget.Epsilon
		rel.SequentialCostDelta = cfg.budget.Delta
	}
	rel.ParallelCostEpsilon = phase1Eps + par.Epsilon
	rel.ParallelCostDelta = par.Delta
	rel.Audit = ledger.Ops()
	return rel, nil
}

// rdpPlan computes the composed-RDP noise plan: one Gaussian scale per
// query (σ = σ_unit · Δ_query, so every query consumes an equal RDP
// share) plus the honest per-query (ε, δ) implied by that scale for the
// artifact's metadata. The global guarantee — all queries together are
// (εg, δ)-DP — is enforced by calibrating σ_unit through the RDP
// accountant.
func (p *Pipeline) rdpPlan(tree *hierarchy.Tree) ([]dp.Params, []float64, error) {
	cfg := p.cfg
	if cfg.budget.Delta <= 0 {
		return nil, nil, fmt.Errorf("%w: composed-rdp requires delta > 0", ErrBadOption)
	}
	if p.countMechanism() != core.MechGaussian {
		return nil, nil, fmt.Errorf("%w: composed-rdp requires the gaussian mechanism", ErrBadOption)
	}
	if cfg.cellHistograms && cfg.strategy.Noise.Cells != core.MechGaussian {
		return nil, nil, fmt.Errorf("%w: composed-rdp requires gaussian cell histograms", ErrBadOption)
	}
	queries := len(cfg.levels)
	if cfg.cellHistograms {
		queries *= 2
	}
	sigmaUnit, err := accountant.GaussianSigmaForBudget(cfg.budget.Epsilon, cfg.budget.Delta, queries)
	if err != nil {
		return nil, nil, fmt.Errorf("release: rdp calibration: %w", err)
	}
	perDelta := cfg.budget.Delta / float64(queries)

	plan := func(sens int64) (dp.Params, float64, error) {
		if sens <= 0 {
			// Empty level: no noise needed; advertise the nominal share.
			return dp.Params{Epsilon: cfg.budget.Epsilon / float64(queries), Delta: perDelta}, 0, nil
		}
		sigma := sigmaUnit * float64(sens)
		eps, err := dp.GaussianEpsilon(sigma, float64(sens), perDelta)
		if err != nil {
			return dp.Params{}, 0, err
		}
		return dp.Params{Epsilon: eps, Delta: perDelta}, sigma, nil
	}

	budgets := make([]dp.Params, 0, queries)
	sigmas := make([]float64, 0, queries)
	for _, lvl := range cfg.levels {
		sens, err := core.Sensitivity(tree, lvl, cfg.model)
		if err != nil {
			return nil, nil, err
		}
		b, s, err := plan(sens)
		if err != nil {
			return nil, nil, err
		}
		budgets = append(budgets, b)
		sigmas = append(sigmas, s)
		if cfg.cellHistograms {
			cellSens, err := core.Sensitivity(tree, lvl, core.ModelCells)
			if err != nil {
				return nil, nil, err
			}
			b, s, err := plan(cellSens)
			if err != nil {
				return nil, nil, err
			}
			budgets = append(budgets, b)
			sigmas = append(sigmas, s)
		}
	}
	return budgets, sigmas, nil
}

// perQueryBudgets maps the global budget to one (ε, δ) per Phase-2 query
// according to the mode.
func (p *Pipeline) perQueryBudgets() ([]dp.Params, error) {
	cfg := p.cfg
	queries := len(cfg.levels)
	if cfg.cellHistograms {
		queries *= 2
	}
	switch cfg.mode {
	case ModePerLevel:
		out := make([]dp.Params, queries)
		for i := range out {
			out[i] = cfg.budget
		}
		return out, nil
	case ModeComposedBasic:
		return accountant.UniformSplitter{}.Split(cfg.budget, queries)
	case ModeComposedAdvanced:
		if cfg.budget.Delta <= 0 {
			return nil, fmt.Errorf("%w: advanced composition requires delta > 0", ErrBadOption)
		}
		slack := cfg.budget.Delta / 2
		perEps, err := accountant.AdvancedPerQueryEpsilon(cfg.budget.Epsilon, queries, slack)
		if err != nil {
			return nil, fmt.Errorf("release: advanced split: %w", err)
		}
		perDelta := cfg.budget.Delta / (2 * float64(queries))
		out := make([]dp.Params, queries)
		for i := range out {
			out[i] = dp.Params{Epsilon: perEps, Delta: perDelta}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: mode %d", ErrBadOption, int(cfg.mode))
	}
}

// ViewFor returns the view a privilege tier receives: the release
// protected at group level `level`.
func (r *Release) ViewFor(level int) (View, error) {
	count, ok := r.Counts.ForLevel(level)
	if !ok {
		return View{}, fmt.Errorf("release: no release for level %d", level)
	}
	v := View{Level: level, Count: count}
	for i := range r.Cells {
		if r.Cells[i].Level == level {
			v.Cells = &r.Cells[i]
			break
		}
	}
	return v, nil
}

// Levels returns the released level numbers in release order.
func (r *Release) Levels() []int {
	out := make([]int, len(r.Counts.Levels))
	for i, l := range r.Counts.Levels {
		out[i] = l.Level
	}
	return out
}

// WriteJSON serializes the artifact. When includeTrue is false the exact
// counts and error rates are stripped, producing the publishable form.
func (r *Release) WriteJSON(w io.Writer, includeTrue bool) error {
	out := *r
	if !includeTrue {
		out.Counts = r.Counts.OmitTrue()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&out); err != nil {
		return fmt.Errorf("release: encoding json: %w", err)
	}
	return nil
}
