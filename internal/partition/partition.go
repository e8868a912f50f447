// Package partition implements Phase 1 of the paper's disclosure pipeline:
// the specialization step that splits a node side in two, selected through
// the exponential mechanism so the split itself is differentially private.
//
// A bisector sees only the prefix sums of an ordered sequence of per-item
// weights (each item is a node of the cell being specialized; its weight
// is the number of associations it contributes to the cell) and chooses a
// cut index k: items [0,k) form the first subgroup and [k,n) the second.
// The private bisector scores each cut by edge balance — utility(k) =
// −|S_k − (S_n − S_k)| where S_k is the prefix weight sum — and samples a
// cut through the exponential mechanism. Adding or removing a single
// association changes any prefix sum by at most 1, so the balance utility
// has sensitivity 1.
//
// The utility is unimodal in k — non-decreasing up to the crossing
// 2·S_k ≥ S_n, non-increasing after it — so the most balanced cut is a
// binary search over the prefix sums, and the private sampler visits only
// the candidates around it whose probability is not an exact zero
// (dp.Exponential.SelectFast): a cut costs O(log n + live window), never
// a sweep of the range.
//
// Non-private baselines (deterministic balanced cut, uniform random cut,
// midpoint cut) support ablation A3 (gdpbench -exp partitioner).
package partition

import (
	"errors"
	"fmt"
	"sort"

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
	// Bisect returns the cut index for the n items whose weights are
	// given as a prefix-sum view of n+1 entries: item i weighs
	// prefix[i+1] − prefix[i] ≥ 0. The base prefix[0] is arbitrary —
	// hierarchy.BuildFromEdges sorts a side once, sums it once and hands
	// every range of every round a window of that one array; PrefixSums
	// builds a view from raw weights. The view is read-only:
	// implementations must not modify or retain it.
	Bisect(prefix []int64) (int, error)
	// Name identifies the strategy in experiment output.
	Name() string
}

// PrivacyConsumer is implemented by bisectors that spend privacy budget
// on every cut. Callers that meter Phase-1 spending (the private-cut
// counter of hierarchy.BuildFromEdges) check for this interface instead
// of asserting a concrete type, so wrappers and custom private bisectors
// are accounted correctly: a wrapper should forward Private to the
// bisector it wraps.
type PrivacyConsumer interface {
	// Private reports whether each Bisect call consumes privacy budget.
	Private() bool
}

// PrefixSums returns the view Bisect reads for raw per-item weights:
// len(weights)+1 entries starting at 0. It is where negative weights are
// rejected, once per sequence, so no cut has to look at the items again.
func PrefixSums(weights []int64) ([]int64, error) {
	prefix := make([]int64, len(weights)+1)
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("%w (item %d = %d)", ErrNegativeWeight, i, w)
		}
		prefix[i+1] = prefix[i] + w
	}
	return prefix, nil
}

// numItems returns how many items a view covers, rejecting views no
// bisector can cut.
func numItems(prefix []int64) (int, error) {
	n := max(len(prefix)-1, 0)
	if n < 2 {
		return 0, fmt.Errorf("%w (n=%d)", ErrTooSmall, n)
	}
	return n, nil
}

// balanceUtility is utility(k) = -|S_k - (S_n - S_k)| of cut k (as float64
// for the exponential mechanism); sum is prefix[0] + prefix[n], which
// cancels the view's base.
func balanceUtility(prefix []int64, sum int64, k int) float64 {
	imbalance := 2*prefix[k] - sum
	if imbalance < 0 {
		imbalance = -imbalance
	}
	return -float64(imbalance)
}

// balancedCut returns the earliest most balanced cut of a view of n ≥ 2
// items. The imbalance 2·S_k − S_n is non-decreasing in k, so its absolute
// value is smallest on one side of the crossing: at the first cut at or
// past it, or on the run of equal prefix sums that ends just before it.
func balancedCut(prefix []int64) int {
	n := len(prefix) - 1
	sum := prefix[0] + prefix[n]
	k := 1 + sort.Search(n-1, func(i int) bool { return 2*prefix[i+1] >= sum })
	if k == 1 {
		return 1
	}
	if before := sum - 2*prefix[k-1]; k < n && 2*prefix[k]-sum < before {
		return k
	}
	return 1 + sort.Search(k-2, func(i int) bool { return prefix[i+1] >= prefix[k-1] })
}

// ExpMechBisector selects the cut through the exponential mechanism with
// the balance utility, consuming ε per invocation. It samples through
// dp.Exponential.SelectFast — the windowed inverse-CDF path, one uniform
// draw per cut — and reuses the window's scratch buffer across calls, so
// a single ExpMechBisector is not safe for concurrent use (its RNG stream
// already is not); hierarchy.BuildFromEdges serializes all cut decisions.
type ExpMechBisector struct {
	mech *dp.Exponential
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
	return &ExpMechBisector{mech: mech}, nil
}

// Bisect implements Bisector. Candidate i of the mechanism is cut i+1.
func (b *ExpMechBisector) Bisect(prefix []int64) (int, error) {
	n, err := numItems(prefix)
	if err != nil {
		return 0, err
	}
	sum := prefix[0] + prefix[n]
	idx, prob, err := b.mech.SelectFast(n-1, balancedCut(prefix)-1, func(i int) float64 {
		return balanceUtility(prefix, sum, i+1)
	}, b.prob)
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

// ForEpsilon chooses the Phase-1 bisector for a per-cut budget: the
// public BalancedBisector when eps is 0, an ExpMechBisector drawing
// from src otherwise.
func ForEpsilon(eps float64, src *rng.Source) (Bisector, error) {
	if eps == 0 {
		return BalancedBisector{}, nil
	}
	return NewExpMechBisector(eps, src)
}

// BalancedBisector deterministically picks the most edge-balanced cut —
// the earliest one on ties, the choice the utility argmax makes. It is
// the non-private skyline for ablation A3.
type BalancedBisector struct{}

var _ Bisector = BalancedBisector{}

// Bisect implements Bisector.
func (BalancedBisector) Bisect(prefix []int64) (int, error) {
	if _, err := numItems(prefix); err != nil {
		return 0, err
	}
	return balancedCut(prefix), nil
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
func (b *RandomBisector) Bisect(prefix []int64) (int, error) {
	n, err := numItems(prefix)
	if err != nil {
		return 0, err
	}
	return 1 + b.src.Intn(n-1), nil
}

// Name implements Bisector.
func (b *RandomBisector) Name() string { return "random" }

// MidpointBisector always cuts at n/2, balancing item counts rather than
// edge weight.
type MidpointBisector struct{}

var _ Bisector = MidpointBisector{}

// Bisect implements Bisector.
func (MidpointBisector) Bisect(prefix []int64) (int, error) {
	n, err := numItems(prefix)
	if err != nil {
		return 0, err
	}
	return n / 2, nil
}

// Name implements Bisector.
func (MidpointBisector) Name() string { return "midpoint" }
