package release

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/hierarchy"
	"repro/internal/partition"
	"repro/internal/rng"
)

// A Strategy decomposes the two-phase release into two composable
// stages — how Phase 1 groups the nodes (Partitioner) and what noise
// Phase 2 injects (NoiseStage) — so the engine is a registry of named
// release plans instead of one hard-coded finish. The paper's
// quadtree + Gaussian pipeline is the default strategy and stays
// byte-identical; alternates (community-aware partitioning in the
// PrivGraph shape, pure-ε Laplace cells) plug in beside it and are
// selectable per dataset at serve.AddDataset / gdpserve -strategy /
// the HTTP ingest request.

// Strategy errors.
var (
	// ErrBadStrategy reports an invalid strategy definition or
	// registration (empty name, duplicate name, nil stage).
	ErrBadStrategy = errors.New("release: invalid strategy")
	// ErrUnknownStrategy reports a strategy name absent from the
	// registry — surfaced at configuration time (Pipeline.New,
	// serve.AddDataset, HTTP ingest), never as a late panic in finish.
	ErrUnknownStrategy = errors.New("release: unknown strategy")
)

// DefaultStrategyName is the paper's pipeline: exponential-mechanism
// quadtree specialization with Gaussian counts and cells. Its artifacts, noise streams and ledger labels are
// pinned byte-identical to the pre-strategy engine.
const DefaultStrategyName = "quadtree-gaussian"

// StrategySalt maps a strategy name to the RNG salt folded into stream
// derivation. The default strategy's salt is zero so its draws (and the
// serving layer's data fingerprints) stay exactly as before the
// strategy seam existed; every other name hashes to a distinct salt so
// two strategies over the same data never share a noise stream.
func StrategySalt(name string) uint64 {
	if name == "" || name == DefaultStrategyName {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte("strategy/" + name))
	return h.Sum64()
}

// PhaseOp is one Phase-1 ledger charge a partitioner declares: the
// label it will appear under in the audit trail and its (ε, δ) cost.
type PhaseOp struct {
	Label string
	Cost  dp.Params
}

// PhaseCost composes an op list into one (ε, δ) total. Uniform lists
// (every built-in partitioner) compose by multiplication, not serial
// addition — n·ε in one rounding step is what the pre-strategy engine
// reported for the quadtree's 2·rounds cuts, and n float additions of ε
// land on different low bits.
func PhaseCost(ops []PhaseOp) dp.Params {
	var total dp.Params
	if len(ops) == 0 {
		return total
	}
	uniform := true
	for _, op := range ops[1:] {
		if op.Cost != ops[0].Cost {
			uniform = false
			break
		}
	}
	if uniform {
		n := float64(len(ops))
		return dp.Params{Epsilon: n * ops[0].Cost.Epsilon, Delta: n * ops[0].Cost.Delta}
	}
	for _, op := range ops {
		total.Epsilon += op.Cost.Epsilon
		total.Delta += op.Cost.Delta
	}
	return total
}

// PartitionConfig is the slice of the pipeline configuration a
// partitioner consumes.
type PartitionConfig struct {
	// Rounds is the specialization depth.
	Rounds int
	// Epsilon is the Phase-1 privacy knob (WithPhase1Epsilon): the
	// per-cut exponential-mechanism budget for the quadtree family, the
	// per-side randomized-response budget for the community family.
	// Zero means a public (uncharged) grouping.
	Epsilon float64
	// Workers bounds any internal parallelism; plans must be identical
	// for every value.
	Workers int
}

// PartitionPlan is a partitioner's resolved Phase-1 plan for one build:
// the bisector that cuts every range and, optionally, an explicit node
// ordering computed from the data.
type PartitionPlan struct {
	Bisector partition.Bisector
	Keys     *hierarchy.OrderKeys
}

// Partitioner is the Phase-1 stage: it decides how the hierarchy's
// contiguous ranges are ordered and cut, and declares what the grouping
// costs. Plans must be deterministic in (data, cfg, src) and identical
// between the graph and streamed build paths.
type Partitioner interface {
	Name() string
	// Ops returns the Phase-1 ledger charges implied by cfg. It is
	// data-independent so serving layers can account ingest cost before
	// touching edges.
	Ops(cfg PartitionConfig) []PhaseOp
	// ChargeAlways reports whether Ops are charged even when the built
	// tree records no private cuts (true for partitioners that spend
	// budget outside the bisector, e.g. on perturbed assignments).
	ChargeAlways() bool
	// PlanSource resolves the plan for one build. Pipeline.Run passes
	// its graph as a bipartite.NewGraphSource, so both build paths plan
	// through this one call.
	PlanSource(es bipartite.EdgeSource, cfg PartitionConfig, src *rng.Source) (PartitionPlan, error)
}

// NoiseStage is the Phase-2 stage: the mechanism for scalar count
// releases and the mechanism for cell-histogram releases. Gaussian
// cells run the chunked worker-sharded fill; Laplace/geometric cells
// run the serial pure-ε path with δ = 0.
type NoiseStage struct {
	Count core.NoiseMechanism
	Cells core.NoiseMechanism
}

// Strategy is one named composition of the two stages.
type Strategy struct {
	name        string
	Partitioner Partitioner
	Noise       NoiseStage
}

// NewStrategy validates and assembles a strategy.
func NewStrategy(name string, p Partitioner, n NoiseStage) (*Strategy, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty name", ErrBadStrategy)
	}
	if p == nil {
		return nil, fmt.Errorf("%w: %q has no partitioner", ErrBadStrategy, name)
	}
	if !n.Count.Valid() {
		return nil, fmt.Errorf("%w: %q count mechanism %d", ErrBadStrategy, name, int(n.Count))
	}
	if !n.Cells.Valid() {
		return nil, fmt.Errorf("%w: %q cell mechanism %d", ErrBadStrategy, name, int(n.Cells))
	}
	return &Strategy{name: name, Partitioner: p, Noise: n}, nil
}

// Name returns the registry name.
func (s *Strategy) Name() string { return s.name }

// StrategyRegistry is a named set of strategies. The zero value is not
// usable; construct with NewStrategyRegistry. The package-level
// Strategies registry carries the built-ins and is what the pipeline,
// the serving layer and the CLIs resolve against.
type StrategyRegistry struct {
	mu sync.RWMutex
	m  map[string]*Strategy
}

// NewStrategyRegistry returns an empty registry.
func NewStrategyRegistry() *StrategyRegistry {
	return &StrategyRegistry{m: make(map[string]*Strategy)}
}

// Register adds a strategy, rejecting nil strategies, empty names and
// duplicates — a second registration under one name would silently
// change which plan existing datasets resolve.
func (r *StrategyRegistry) Register(s *Strategy) error {
	if s == nil {
		return fmt.Errorf("%w: nil strategy", ErrBadStrategy)
	}
	if s.name == "" {
		return fmt.Errorf("%w: empty name", ErrBadStrategy)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[s.name]; ok {
		return fmt.Errorf("%w: %q is already registered", ErrBadStrategy, s.name)
	}
	r.m[s.name] = s
	return nil
}

// Resolve returns the named strategy; the empty name selects the
// default. Unknown names report ErrUnknownStrategy with the available
// names, so a typo surfaces at configuration time with enough context
// to fix it.
func (r *StrategyRegistry) Resolve(name string) (*Strategy, error) {
	if name == "" {
		name = DefaultStrategyName
	}
	r.mu.RLock()
	s, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownStrategy, name, r.Names())
	}
	return s, nil
}

// Names returns the registered names, sorted.
func (r *StrategyRegistry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for name := range r.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Strategies is the process-wide registry, seeded with the built-ins.
var Strategies = NewStrategyRegistry()

func init() {
	mustRegister := func(name string, p Partitioner, n NoiseStage) {
		s, err := NewStrategy(name, p, n)
		if err == nil {
			err = Strategies.Register(s)
		}
		if err != nil {
			panic(err)
		}
	}
	// The paper's pipeline, byte-identical to the pre-strategy engine.
	mustRegister(DefaultStrategyName, QuadtreePartitioner{},
		NoiseStage{Count: core.MechGaussian, Cells: core.MechGaussian})
	// Pure-ε alternative: Laplace counts and cells, δ = 0 end to end.
	mustRegister("quadtree-laplace", QuadtreePartitioner{},
		NoiseStage{Count: core.MechLaplace, Cells: core.MechLaplace})
	// Community-aware partitioning in the PrivGraph shape: modularity-
	// style label grouping on the side projections, DP-perturbed
	// assignment charged to the Phase-1 budget, Gaussian Phase 2.
	mustRegister("community-gaussian", CommunityPartitioner{},
		NoiseStage{Count: core.MechGaussian, Cells: core.MechGaussian})
}

// QuadtreePartitioner is the paper's Phase 1: degree-descending range
// order cut by the exponential-mechanism bisector when a Phase-1 budget
// is configured, the public balanced bisector otherwise.
type QuadtreePartitioner struct{}

// Name implements Partitioner.
func (QuadtreePartitioner) Name() string { return "quadtree" }

// Ops implements Partitioner: cuts within one (depth, side) operate on
// disjoint node ranges and compose in parallel; the 2·rounds
// side-depths compose sequentially.
func (QuadtreePartitioner) Ops(cfg PartitionConfig) []PhaseOp {
	if cfg.Epsilon <= 0 {
		return nil
	}
	ops := make([]PhaseOp, 0, 2*cfg.Rounds)
	for d := 0; d < cfg.Rounds; d++ {
		for _, side := range []string{"left", "right"} {
			ops = append(ops, PhaseOp{
				Label: fmt.Sprintf("phase1/depth%d/%s", d, side),
				Cost:  dp.Params{Epsilon: cfg.Epsilon},
			})
		}
	}
	return ops
}

// ChargeAlways implements Partitioner: the quadtree spends only through
// the bisector, so a build with no private cuts owes nothing.
func (QuadtreePartitioner) ChargeAlways() bool { return false }

// PlanSource implements Partitioner: the exponential mechanism when a
// Phase-1 budget is set, the public balanced bisector otherwise. The
// quadtree orders by degree, so it never reads the source.
func (QuadtreePartitioner) PlanSource(_ bipartite.EdgeSource, cfg PartitionConfig, src *rng.Source) (PartitionPlan, error) {
	if cfg.Epsilon > 0 {
		b, err := partition.NewExpMechBisector(cfg.Epsilon, src)
		if err != nil {
			return PartitionPlan{}, fmt.Errorf("release: phase 1 bisector: %w", err)
		}
		return PartitionPlan{Bisector: b}, nil
	}
	return PartitionPlan{Bisector: partition.BalancedBisector{}}, nil
}
