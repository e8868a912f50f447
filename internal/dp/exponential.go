package dp

import (
	"fmt"
	"math"

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

// Select returns the index of the chosen candidate given per-candidate
// utilities. It uses the Gumbel-max trick — argmax of scaled utility plus
// independent Gumbel noise — which samples from exactly the exponential
// mechanism's distribution while staying numerically stable for widely
// spread utilities.
func (m *Exponential) Select(utilities []float64) (int, error) {
	if len(utilities) == 0 {
		return 0, ErrEmptyDomain
	}
	scale := m.epsilon / (2 * m.utilitySens)
	best := -1
	bestScore := math.Inf(-1)
	for i, u := range utilities {
		if math.IsNaN(u) {
			return 0, fmt.Errorf("dp: utility %d is NaN", i)
		}
		score := scale*u + m.src.Gumbel()
		if score > bestScore {
			bestScore = score
			best = i
		}
	}
	return best, nil
}

// SelectFast samples exactly the same distribution as Select and
// SelectLSE via inverse-CDF over softmax probabilities, but into a
// caller-provided scratch buffer: no allocation in steady state, one
// uniform draw per call regardless of domain size, and one exponential
// per candidate — about half the transcendental cost of the Gumbel-max
// path, which pays two logarithms per candidate. It is the hot-path
// sampler for Phase-1 specialization, where Build invokes the mechanism
// once per cut over every node of the side. The (possibly grown) scratch
// is returned for reuse; its contents are the probability vector. The
// arithmetic mirrors Probabilities/SelectLSE operation for operation, so
// given identical source states the three samplers pick identical
// candidates (cross-checked in tests).
//
// One step is elided, exactly: a candidate whose shifted score s − max
// lies below expZeroBelow has weight math.Exp(s − max) == 0, so the call
// is skipped and the 0 stored directly. Every later use of that weight is
// an identity — norm + 0, 0/norm, cum + 0 — so the probability vector,
// the chosen index and the single uniform consumed are unchanged. On
// heavy-tailed sides most cuts of a balance utility sit thousands of
// units below the best one, and skipping them removes most of the
// per-candidate transcendental cost.
func (m *Exponential) SelectFast(utilities, scratch []float64) (int, []float64, error) {
	if len(utilities) == 0 {
		return 0, scratch, ErrEmptyDomain
	}
	if cap(scratch) < len(utilities) {
		scratch = make([]float64, len(utilities))
	}
	probs := scratch[:len(utilities)]
	scale := m.epsilon / (2 * m.utilitySens)
	maxScore := math.Inf(-1)
	for i, u := range utilities {
		if math.IsNaN(u) {
			return 0, scratch, fmt.Errorf("dp: utility %d is NaN", i)
		}
		if s := scale * u; s > maxScore {
			maxScore = s
		}
	}
	// [first, last] spans the candidates whose weight went through
	// math.Exp; everything outside it is an exact 0.
	var norm float64
	first, last := 0, -1
	for i, u := range utilities {
		// The conversion rounds the product before the subtraction:
		// Probabilities stores its scores, and a fused multiply-subtract
		// here would round differently from that.
		d := float64(scale*u) - maxScore
		if d < expZeroBelow {
			probs[i] = 0
			continue
		}
		probs[i] = math.Exp(d)
		norm += probs[i]
		if last < 0 {
			first = i
		}
		last = i
	}
	if math.IsNaN(norm) {
		// Infinite utilities: x/NaN is NaN even for the exact zeros.
		first, last = 0, len(probs)-1
	}
	for i := first; i <= last; i++ {
		probs[i] /= norm
	}
	u := m.src.Float64()
	var cum float64
	for i := first; i <= last; i++ {
		cum += probs[i]
		if u < cum {
			return i, probs, nil
		}
	}
	return len(probs) - 1, probs, nil
}

// expZeroBelow is a shifted score under which math.Exp returns exactly 0
// on every Go target: e^-750 ≈ 10^-325.7 is below half the smallest
// denormal float64 (2^-1075 ≈ 10^-323.6), so it rounds to zero, and both
// the portable math.Exp and the assembly versions return 0 outright for
// arguments under ≈ −745.13. A NaN difference compares false and still
// goes through math.Exp.
const expZeroBelow = -750

// SelectLSE samples the same distribution by explicit inverse-CDF over
// softmax probabilities computed with the log-sum-exp trick. It exists to
// cross-validate Select in tests and for callers that also need the
// probability vector.
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
