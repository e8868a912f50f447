package release

import (
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/dp"
)

// A Strategy names one release plan: the paper's Phase 1
// (exponential-mechanism quadtree cuts over the degree order) followed
// by Phase-2 noise from one mechanism, for counts and cells alike. The
// paper's quadtree + Gaussian pipeline is the default strategy and stays
// byte-identical; the pure-ε Laplace and geometric mechanisms are the
// alternates, selectable per dataset at serve.AddDataset / gdpserve
// -strategy / the HTTP ingest request, and per artifact at gdprelease
// -mech.

// ErrUnknownStrategy reports a strategy name absent from the table —
// surfaced at configuration time (Pipeline.New, serve.AddDataset, HTTP
// ingest), never as a late panic in finish.
var ErrUnknownStrategy = errors.New("release: unknown strategy")

// DefaultStrategyName is the paper's pipeline: exponential-mechanism
// quadtree specialization with Gaussian counts and cells. Its artifacts,
// noise streams and ledger labels are pinned byte-identical to the
// pre-strategy engine.
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

// PhaseOp is one Phase-1 ledger charge: the label it appears under in
// the audit trail and its (ε, δ) cost.
type PhaseOp struct {
	Label string
	Cost  dp.Params
}

// PhaseCost returns Phase 1's ledger charges for a rounds-deep quadtree
// at per-cut budget eps, and their total. Cuts within one (depth, side)
// operate on disjoint node ranges and compose in parallel; the 2·rounds
// side-depths compose sequentially. The total is n·ε in one rounding
// step, not n float additions of ε, which land on different low bits.
// A zero eps is the public balanced bisector: no charges.
func PhaseCost(rounds int, eps float64) ([]PhaseOp, dp.Params) {
	if eps <= 0 {
		return nil, dp.Params{}
	}
	ops := make([]PhaseOp, 0, 2*rounds)
	for d := 0; d < rounds; d++ {
		for _, side := range []string{"left", "right"} {
			ops = append(ops, PhaseOp{
				Label: fmt.Sprintf("phase1/depth%d/%s", d, side),
				Cost:  dp.Params{Epsilon: eps},
			})
		}
	}
	return ops, dp.Params{Epsilon: float64(len(ops)) * eps}
}

// Strategy is one named Phase-2 noise mechanism over the paper's
// Phase 1. Mech perturbs every count and cell release; the pure-ε
// mechanisms release with δ = 0.
type Strategy struct {
	name string
	Mech core.NoiseMechanism
}

// Name returns the strategy's name.
func (s *Strategy) Name() string { return s.name }

// StrategyRegistry is a fixed table of strategies, in name order.
type StrategyRegistry []Strategy

// Resolve returns the named strategy; the empty name selects the
// default. Unknown names report ErrUnknownStrategy with the available
// names, so a typo surfaces at configuration time with enough context
// to fix it.
func (r StrategyRegistry) Resolve(name string) (*Strategy, error) {
	if name == "" {
		name = DefaultStrategyName
	}
	for i := range r {
		if r[i].name == name {
			return &r[i], nil
		}
	}
	return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownStrategy, name, r.Names())
}

// Names returns the strategies' names, sorted.
func (r StrategyRegistry) Names() []string {
	out := make([]string, len(r))
	for i := range r {
		out[i] = r[i].name
	}
	return out
}

// Strategies is the built-in table the pipeline, the serving layer and
// the CLIs resolve against.
var Strategies = StrategyRegistry{
	// The paper's pipeline, byte-identical to the pre-strategy engine.
	{name: DefaultStrategyName, Mech: core.MechGaussian},
	// Pure-ε alternatives, δ = 0 end to end; geometric counts and cells
	// are integers before rounding.
	{name: "quadtree-geometric", Mech: core.MechGeometric},
	{name: "quadtree-laplace", Mech: core.MechLaplace},
}
