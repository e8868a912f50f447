// Package partition implements Phase 1 of the paper's disclosure pipeline:
// the specialization step that splits a node side in two, selected through
// the exponential mechanism so the split itself is differentially private.
//
// A bisector sees only an ordered slice of per-item weights (each item is a
// node of the cell being specialized; its weight is the number of
// associations it contributes to the cell) and chooses a cut index k: items
// [0,k) form the first subgroup and [k,n) the second. The private bisector
// scores each cut by edge balance — utility(k) = −|S_k − (S_n − S_k)| where
// S_k is the prefix weight sum — and samples a cut through the exponential
// mechanism. Adding or removing a single association changes any prefix sum
// by at most 1, so the balance utility has sensitivity 1.
//
// Non-private baselines (deterministic balanced cut, uniform random cut,
// midpoint cut) support ablation A3 in DESIGN.md.
package partition

import (
	"errors"
	"fmt"

	"repro/internal/dp"
	"repro/internal/rng"
)

// Errors returned by bisectors.
var (
	// ErrTooSmall reports a cell with fewer than two items, which cannot
	// be split. Callers treat it as "stop specializing this branch".
	ErrTooSmall = errors.New("partition: fewer than two items to bisect")
	// ErrNegativeWeight reports an item with a negative weight.
	ErrNegativeWeight = errors.New("partition: item weights must be non-negative")
)

// Bisector chooses a cut index in [1, n-1] for a weighted item sequence.
type Bisector interface {
	// Bisect returns the cut index for the given per-item weights. The
	// weights slice is read-only: implementations must not modify or
	// retain it — hierarchy.Build hands bisectors a view of live internal
	// state on its hot path.
	Bisect(weights []int64) (int, error)
	// Name identifies the strategy in experiment output.
	Name() string
}

// PrivacyConsumer is implemented by bisectors that spend privacy budget
// on every cut. Callers that meter Phase-1 spending (hierarchy.Build's
// private-cut counter) check for this interface instead of asserting a
// concrete type, so wrappers and custom private bisectors are accounted
// correctly: a wrapper should forward Private to the bisector it wraps.
type PrivacyConsumer interface {
	// Private reports whether each Bisect call consumes privacy budget.
	Private() bool
}

// validate rejects degenerate inputs shared by all bisectors and returns
// the total weight — the one sweep every weight-reading bisector needs
// before it can score a cut.
func validate(weights []int64) (total int64, err error) {
	if len(weights) < 2 {
		return 0, fmt.Errorf("%w (n=%d)", ErrTooSmall, len(weights))
	}
	for i, w := range weights {
		if w < 0 {
			return 0, fmt.Errorf("%w (item %d = %d)", ErrNegativeWeight, i, w)
		}
		total += w
	}
	return total, nil
}

// fillBalanceUtilities writes utility(k) = -|S_k - (S_n - S_k)| for every
// cut k in [1, n-1] into dst[k-1] (as float64 for the exponential
// mechanism); total is S_n and dst holds at least n-1 entries.
func fillBalanceUtilities(dst []float64, weights []int64, total int64) {
	var prefix int64
	for k, w := range weights[:len(weights)-1] {
		prefix += w
		imbalance := prefix - (total - prefix)
		if imbalance < 0 {
			imbalance = -imbalance
		}
		dst[k] = -float64(imbalance)
	}
}

// ExpMechBisector selects the cut through the exponential mechanism with
// the balance utility, consuming ε per invocation. It samples through
// dp.Exponential.SelectFast — the allocation-free inverse-CDF path, one
// uniform draw per cut — and reuses internal scratch buffers across
// calls, so a single ExpMechBisector is not safe for concurrent use (its
// RNG stream already is not); hierarchy.Build serializes all cut
// decisions.
type ExpMechBisector struct {
	mech *dp.Exponential
	eps  float64
	util []float64 // balance utilities, reused across Bisect calls
	prob []float64 // SelectFast scratch, reused across Bisect calls
}

var (
	_ Bisector        = (*ExpMechBisector)(nil)
	_ PrivacyConsumer = (*ExpMechBisector)(nil)
)

// NewExpMechBisector returns a private bisector spending epsilon per cut.
func NewExpMechBisector(epsilon float64, src *rng.Source) (*ExpMechBisector, error) {
	mech, err := dp.NewExponential(epsilon, 1, src)
	if err != nil {
		return nil, fmt.Errorf("partition: building exponential mechanism: %w", err)
	}
	return &ExpMechBisector{mech: mech, eps: epsilon}, nil
}

// Epsilon returns the per-cut privacy cost.
func (b *ExpMechBisector) Epsilon() float64 { return b.eps }

// Bisect implements Bisector.
func (b *ExpMechBisector) Bisect(weights []int64) (int, error) {
	total, err := validate(weights)
	if err != nil {
		return 0, err
	}
	n := len(weights) - 1
	if cap(b.util) < n {
		b.util = make([]float64, n)
	}
	b.util = b.util[:n]
	fillBalanceUtilities(b.util, weights, total)
	idx, prob, err := b.mech.SelectFast(b.util, b.prob)
	b.prob = prob
	if err != nil {
		return 0, err
	}
	return idx + 1, nil
}

// Name implements Bisector.
func (b *ExpMechBisector) Name() string { return "expmech" }

// Private implements PrivacyConsumer.
func (b *ExpMechBisector) Private() bool { return true }

// BalancedBisector deterministically picks the most edge-balanced cut. It
// is the non-private skyline for ablation A3.
type BalancedBisector struct{}

var _ Bisector = BalancedBisector{}

// Bisect implements Bisector. It scans prefix sums directly — no utility
// slice is materialized — and keeps the earliest most-balanced cut, the
// same choice the utility-argmax formulation makes.
func (BalancedBisector) Bisect(weights []int64) (int, error) {
	total, err := validate(weights)
	if err != nil {
		return 0, err
	}
	best, bestImbalance := 1, int64(-1)
	var prefix int64
	for k := 1; k < len(weights); k++ {
		prefix += weights[k-1]
		imbalance := 2*prefix - total
		if imbalance < 0 {
			imbalance = -imbalance
		}
		if bestImbalance < 0 || imbalance < bestImbalance {
			best, bestImbalance = k, imbalance
		}
	}
	return best, nil
}

// Name implements Bisector.
func (BalancedBisector) Name() string { return "balanced" }

// RandomBisector picks a uniform random cut; it models specialization with
// no utility signal at all.
type RandomBisector struct {
	src *rng.Source
}

var _ Bisector = (*RandomBisector)(nil)

// NewRandomBisector returns a RandomBisector drawing from src.
func NewRandomBisector(src *rng.Source) (*RandomBisector, error) {
	if src == nil {
		return nil, dp.ErrNilSource
	}
	return &RandomBisector{src: src}, nil
}

// Bisect implements Bisector.
func (b *RandomBisector) Bisect(weights []int64) (int, error) {
	if _, err := validate(weights); err != nil {
		return 0, err
	}
	return 1 + b.src.Intn(len(weights)-1), nil
}

// Name implements Bisector.
func (b *RandomBisector) Name() string { return "random" }

// MidpointBisector always cuts at n/2, balancing item counts rather than
// edge weight.
type MidpointBisector struct{}

var _ Bisector = MidpointBisector{}

// Bisect implements Bisector.
func (MidpointBisector) Bisect(weights []int64) (int, error) {
	if _, err := validate(weights); err != nil {
		return 0, err
	}
	return len(weights) / 2, nil
}

// Name implements Bisector.
func (MidpointBisector) Name() string { return "midpoint" }

// CutQuality describes how balanced a chosen cut is, for diagnostics and
// experiment reporting.
type CutQuality struct {
	// LeftWeight and RightWeight are the summed weights of the two parts.
	LeftWeight  int64
	RightWeight int64
	// Imbalance is |LeftWeight − RightWeight| / TotalWeight in [0, 1];
	// zero for a perfectly balanced cut. It is 0 when the total is 0.
	Imbalance float64
}

// Quality evaluates a cut.
func Quality(weights []int64, cut int) (CutQuality, error) {
	if _, err := validate(weights); err != nil {
		return CutQuality{}, err
	}
	if cut < 1 || cut >= len(weights) {
		return CutQuality{}, fmt.Errorf("partition: cut %d outside [1,%d)", cut, len(weights))
	}
	var q CutQuality
	for i, w := range weights {
		if i < cut {
			q.LeftWeight += w
		} else {
			q.RightWeight += w
		}
	}
	if total := q.LeftWeight + q.RightWeight; total > 0 {
		diff := q.LeftWeight - q.RightWeight
		if diff < 0 {
			diff = -diff
		}
		q.Imbalance = float64(diff) / float64(total)
	}
	return q, nil
}
