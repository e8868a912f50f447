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

// WithStrategy selects a built-in release strategy by name — the noise
// mechanism the pipeline runs after the paper's Phase 1.
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
	// share is the mode's per-query noise, resolved in New without data:
	// the full budget (per-level), its basic or advanced split, or under
	// composed-rdp σ per unit of sensitivity with the nominal share
	// (ε/q, δ/q) as its Budget.
	share core.Noise
}

// New validates the options and returns a Pipeline. budget is the global
// (εg, δ) group-privacy budget. A mode, strategy and budget that cannot
// release together fail here with ErrBadOption, before any data is read.
func New(budget dp.Params, opts ...Option) (*Pipeline, error) {
	if err := budget.Validate(); err != nil {
		return nil, err
	}
	cfg := config{
		budget: budget,
		rounds: 9,
		mode:   ModePerLevel,
		model:  core.ModelCells,
		calib:  core.CalibrationClassical,
		seed:   1,
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
	share, err := cfg.share()
	if err != nil {
		return nil, err
	}
	return &Pipeline{cfg: cfg, share: share}, nil
}

// share resolves the mode's per-query noise over the q Phase-2 queries
// and checks that it can perturb a release at all.
func (cfg *config) share() (core.Noise, error) {
	q := len(cfg.levels)
	if cfg.cellHistograms {
		q *= 2
	}
	b := cfg.budget
	split := dp.Params{Epsilon: b.Epsilon / float64(q), Delta: b.Delta / float64(q)}
	n := core.Noise{Mech: cfg.strategy.Mech, Calib: cfg.calib, Budget: b}
	switch cfg.mode {
	case ModeComposedBasic:
		n.Budget = split
	case ModeComposedAdvanced:
		if b.Delta <= 0 {
			return n, fmt.Errorf("%w: advanced composition requires delta > 0", ErrBadOption)
		}
		perEps, err := accountant.AdvancedPerQueryEpsilon(b.Epsilon, q, b.Delta/2)
		if err != nil {
			return n, fmt.Errorf("%w: advanced split: %v", ErrBadOption, err)
		}
		n.Budget = dp.Params{Epsilon: perEps, Delta: b.Delta / (2 * float64(q))}
	case ModeComposedRDP:
		if b.Delta <= 0 {
			return n, fmt.Errorf("%w: composed-rdp requires delta > 0", ErrBadOption)
		}
		sigmaUnit, err := accountant.GaussianSigmaForBudget(b.Epsilon, b.Delta, q)
		if err != nil {
			return n, fmt.Errorf("%w: rdp calibration: %v", ErrBadOption, err)
		}
		// Validate refuses an external σ on a pure-ε mechanism.
		n.Budget, n.External, n.Sigma = split, true, sigmaUnit
	}
	if err := n.Validate(); err != nil {
		return n, fmt.Errorf("%w: per-query %s noise under %s: %v", ErrBadOption, n.Mech, cfg.mode, err)
	}
	return n, nil
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
	// Audit is the run's spend plan in order, numbered from 1: the
	// Phase-1 side-depth charges when the build made private cuts, then
	// per level its count and, with cell histograms, its cells. The plan
	// is fixed before any noise is drawn; nothing is released that it
	// does not list.
	Audit []accountant.Op `json:"-"`

	tree *hierarchy.Tree
}

// Tree exposes the built hierarchy for evaluation tooling (the tree
// itself is curator-side state, not part of the published artifact).
func (r *Release) Tree() *hierarchy.Tree { return r.tree }

// Run executes both phases on g: RunFromEdges over
// bipartite.NewGraphSource(g).
func (p *Pipeline) Run(g *bipartite.Graph) (*Release, error) {
	if g == nil {
		return nil, ErrNilGraph
	}
	return p.RunFromEdges(bipartite.NewGraphSource(g))
}

// RunFromEdges executes both phases over a chunked edge stream: Phase 1
// runs through hierarchy.BuildFromEdges (two passes over the source, peak
// memory O(chunk + sides) on top of the source's own) and Phase 2 is the
// usual noise injection on the resulting tree. The artifact depends only
// on the source's edge multiset and sides, never on edge order — the
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

// hierarchyOptions assembles the Phase-1 build options: the bisector
// partition.ForEpsilon chooses for the Phase-1 budget, on the phase-1
// stream.
func (p *Pipeline) hierarchyOptions(phase1Src *rng.Source) (hierarchy.Options, error) {
	b, err := partition.ForEpsilon(p.cfg.phase1Epsilon, phase1Src)
	if err != nil {
		return hierarchy.Options{}, fmt.Errorf("release: phase 1 bisector: %w", err)
	}
	return hierarchy.Options{Rounds: p.cfg.rounds, Bisector: b, Workers: p.cfg.workers}, nil
}

// opKind says what a plan op does besides being charged.
type opKind int

const (
	opPhase1 opKind = iota // a Phase-1 side-depth charge; releases nothing
	opCount                // a level's noisy association count
	opCells                // a level's noisy cell histogram
)

// planOp is one spend of a run: its audit label and (ε, δ) cost, and
// for a Phase-2 release the level and the noise it is released under.
type planOp struct {
	PhaseOp
	kind  opKind
	level int
	noise core.Noise
}

// plan returns the run's spends in order: the Phase-1 side-depth
// charges when the build made private cuts, then per level its count
// and, with cell histograms, its cells.
func (p *Pipeline) plan(tree *hierarchy.Tree) ([]planOp, error) {
	cfg := p.cfg
	var ops []planOp
	if cfg.phase1Epsilon > 0 && tree.NumPrivateCuts() > 0 {
		phase1, _ := PhaseCost(cfg.rounds, cfg.phase1Epsilon)
		for _, op := range phase1 {
			ops = append(ops, planOp{PhaseOp: op, kind: opPhase1})
		}
	}
	for _, lvl := range cfg.levels {
		n, err := p.noiseAt(tree, lvl, cfg.model)
		if err != nil {
			return nil, err
		}
		ops = append(ops, planOp{PhaseOp{fmt.Sprintf("phase2/count/level%d", lvl), n.Budget}, opCount, lvl, n})
		if cfg.cellHistograms {
			n, err := p.noiseAt(tree, lvl, core.ModelCells)
			if err != nil {
				return nil, err
			}
			ops = append(ops, planOp{PhaseOp{fmt.Sprintf("phase2/cells/level%d", lvl), n.Budget}, opCells, lvl, n})
		}
	}
	return ops, nil
}

// noiseAt returns the noise of one release at a level under the group
// model. It is the share, except under composed-rdp: there σ scales with
// the release's sensitivity, so every query consumes an equal RDP share,
// and the cost is the (ε, δ) that σ implies (dp.GaussianEpsilon). An
// empty level draws no noise and is charged the nominal share.
func (p *Pipeline) noiseAt(tree *hierarchy.Tree, lvl int, model core.GroupModel) (core.Noise, error) {
	n := p.share
	if !n.External {
		return n, nil
	}
	sens, err := core.Sensitivity(tree, lvl, model)
	if err != nil || sens <= 0 {
		n.Sigma = 0
		return n, err
	}
	n.Sigma *= float64(sens)
	n.Budget.Epsilon, err = dp.GaussianEpsilon(n.Sigma, float64(sens), n.Budget.Delta)
	return n, err
}

// finish runs Phase 2 and assembles the artifact from a built tree — the
// shared tail of Run and RunFromEdges. It walks the plan, releasing each
// Phase-2 op through the core kernel; the audit trail is the plan.
func (p *Pipeline) finish(tree *hierarchy.Tree, phase2Src *rng.Source) (*Release, error) {
	cfg := p.cfg
	strat := cfg.strategy
	ops, err := p.plan(tree)
	if err != nil {
		return nil, err
	}
	// Phase 1's total is PhaseCost's n·ε in one rounding step, not the
	// float sum of its ops.
	var phase1Eps float64
	if ops[0].kind == opPhase1 {
		_, phase1Cost := PhaseCost(cfg.rounds, cfg.phase1Epsilon)
		phase1Eps = phase1Cost.Epsilon
	}

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
		MechName:      strat.Mech.String(),
		Strategy:      strategyName,
		Rounds:        cfg.rounds,
		BudgetEpsilon: cfg.budget.Epsilon,
		BudgetDelta:   cfg.budget.Delta,
		Phase1Epsilon: phase1Eps,
		Counts:        core.MultiLevelRelease{MaxLevel: tree.MaxLevel()},
		Audit:         make([]accountant.Op, len(ops)),
		tree:          tree,
	}
	for lvl := tree.MaxLevel(); lvl >= 0; lvl-- {
		prof, err := tree.Profile(lvl)
		if err != nil {
			return nil, fmt.Errorf("release: profiling level %d: %w", lvl, err)
		}
		rel.Profiles = append(rel.Profiles, prof)
	}

	var costs []dp.Params
	for i, op := range ops {
		rel.Audit[i] = accountant.Op{Seq: i + 1, Label: op.Label, Cost: op.Cost}
		switch op.kind {
		case opPhase1:
			continue
		case opCount:
			count, err := core.ReleaseCount(tree, op.level, cfg.model, op.noise, phase2Src.Split(uint64(op.level)))
			if err != nil {
				return nil, fmt.Errorf("release: phase 2 count at level %d: %w", op.level, err)
			}
			rel.Counts.Levels = append(rel.Counts.Levels, count)
		case opCells:
			// The pipeline's Workers option shards each histogram's noise
			// pass too; releases are bit-identical for any value.
			var cells core.CellRelease
			if err := core.ReleaseCells(&cells, tree, op.level, op.noise, phase2Src.Split(1000+uint64(op.level)), cfg.workers); err != nil {
				return nil, fmt.Errorf("release: phase 2 cells at level %d: %w", op.level, err)
			}
			rel.Cells = append(rel.Cells, cells)
		}
		costs = append(costs, op.Cost)
	}

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
	return rel, nil
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
