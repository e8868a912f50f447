package dp

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// Exponential is the exponential mechanism of McSherry & Talwar: it
// selects a candidate from a finite domain with probability proportional
// to exp(ε·u(c) / (2·Δu)), where u is the utility function and Δu its
// sensitivity. The disclosure pipeline's Phase 1 uses it to choose
// partition cut points.
type Exponential struct {
	epsilon     float64
	utilitySens float64
	src         *rng.Source
}

// NewExponential returns an exponential mechanism for the given ε and
// utility sensitivity Δu.
func NewExponential(epsilon, utilitySensitivity float64, src *rng.Source) (*Exponential, error) {
	if err := (Params{Epsilon: epsilon}).Validate(); err != nil {
		return nil, err
	}
	if err := validateSensitivity(utilitySensitivity); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, ErrNilSource
	}
	return &Exponential{epsilon: epsilon, utilitySens: utilitySensitivity, src: src}, nil
}

// SelectFast samples exactly the distribution of SelectLSE over a
// unimodal utility without visiting the whole domain. The n
// candidates' utilities are read through utility(i), which must be
// non-decreasing up to index peak and non-increasing after it, and
// finite at peak — the shape of Phase 1's balance utility, where Build
// invokes the mechanism once per cut over every node of a range.
//
// A candidate whose shifted score s − max lies below expZeroBelow has
// weight math.Exp(s − max) == 0, and every use of such a weight is an
// identity: norm + 0, 0/norm, cum + 0. Scaling by a positive constant and
// subtracting the maximum are monotone under IEEE rounding, so on a
// unimodal utility the candidates that are not exact zeros form one
// contiguous window around the peak. Both ends are found by binary search
// with the float predicate itself, and the fill, sum, divide and
// cumulative scan of Probabilities/SelectLSE then run over the window
// alone, in index order, operation for operation: given identical source
// states the samplers pick identical candidates and consume the same
// single uniform, and the window's probabilities equal SelectLSE's bit
// for bit (cross-checked in tests). On heavy-tailed sides most cuts sit
// thousands of units below the best one, so a call costs O(log n + window)
// where the full vector costs O(n), and math.Exp runs once per distinct
// consecutive utility in the window.
//
// The window's probability vector is written to scratch, which grows as
// needed and is returned for reuse. A NaN among the utilities the call
// reads is an error.
func (m *Exponential) SelectFast(n, peak int, utility func(i int) float64, scratch []float64) (int, []float64, error) {
	if n <= 0 {
		return 0, scratch, ErrEmptyDomain
	}
	if peak < 0 || peak >= n {
		return 0, scratch, fmt.Errorf("dp: peak %d outside the domain [0,%d)", peak, n)
	}
	scale := m.epsilon / (2 * m.utilitySens)
	best := utility(peak)
	maxScore := scale * best
	if math.IsNaN(maxScore) || math.IsInf(maxScore, 0) {
		return 0, scratch, fmt.Errorf("dp: utility %d, the peak, is %v", peak, best)
	}
	// The conversion rounds the product before the subtraction:
	// Probabilities stores its scores, and a fused multiply-subtract here
	// would round differently from that.
	zero := func(i int) bool { return float64(scale*utility(i))-maxScore < expZeroBelow }
	first := sort.Search(peak, func(i int) bool { return !zero(i) })
	last := peak + sort.Search(n-1-peak, func(i int) bool { return zero(peak + 1 + i) })
	window := last - first + 1
	if cap(scratch) < window {
		// Doubled, up to the domain: a later call's window can be wider,
		// and a reused scratch should settle after a few growths.
		scratch = make([]float64, min(2*window, n))
	}
	probs := scratch[:window]
	var norm float64
	// A run of equal utilities — zero-weight items between two cuts —
	// shares one math.Exp call: the same argument gives the same bits.
	prevD, prevP := math.NaN(), 0.0
	for i := range probs {
		u := utility(first + i)
		if math.IsNaN(u) {
			return 0, scratch, fmt.Errorf("dp: utility %d is NaN", first+i)
		}
		if d := float64(scale*u) - maxScore; d != prevD {
			prevD, prevP = d, math.Exp(d)
		}
		probs[i] = prevP
		norm += prevP
	}
	for i := range probs {
		probs[i] /= norm
	}
	u := m.src.Float64()
	var cum float64
	for i, p := range probs {
		cum += p
		if u < cum {
			return first + i, probs, nil
		}
	}
	// Past the window cum only gains zeros, so the scan over the whole
	// domain would run to its last candidate.
	return n - 1, probs, nil
}

// expZeroBelow is a shifted score under which math.Exp returns exactly 0
// on every Go target: e^-750 ≈ 10^-325.7 is below half the smallest
// denormal float64 (2^-1075 ≈ 10^-323.6), so it rounds to zero, and both
// the portable math.Exp and the assembly versions return 0 outright for
// arguments under ≈ −745.13. A NaN difference compares false, so a NaN
// utility is never taken for a zero: it stays inside the window, where
// the fill rejects it.
const expZeroBelow = -750

// SelectLSE samples the mechanism's distribution by explicit inverse-CDF over
// softmax probabilities computed with the log-sum-exp trick, visiting the
// whole domain. It is SelectFast's reference: the tests hold the two to
// identical picks and bit-identical probabilities.
func (m *Exponential) SelectLSE(utilities []float64) (int, []float64, error) {
	probs, err := m.Probabilities(utilities)
	if err != nil {
		return 0, nil, err
	}
	u := m.src.Float64()
	var cum float64
	for i, p := range probs {
		cum += p
		if u < cum {
			return i, probs, nil
		}
	}
	return len(probs) - 1, probs, nil
}

// Probabilities returns the exact selection distribution over candidates.
func (m *Exponential) Probabilities(utilities []float64) ([]float64, error) {
	if len(utilities) == 0 {
		return nil, ErrEmptyDomain
	}
	scale := m.epsilon / (2 * m.utilitySens)
	maxScore := math.Inf(-1)
	scores := make([]float64, len(utilities))
	for i, u := range utilities {
		if math.IsNaN(u) {
			return nil, fmt.Errorf("dp: utility %d is NaN", i)
		}
		scores[i] = scale * u
		if scores[i] > maxScore {
			maxScore = scores[i]
		}
	}
	var norm float64
	probs := make([]float64, len(scores))
	for i, s := range scores {
		probs[i] = math.Exp(s - maxScore)
		norm += probs[i]
	}
	for i := range probs {
		probs[i] /= norm
	}
	return probs, nil
}
