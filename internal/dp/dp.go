// Package dp holds what the disclosure pipeline needs of differential
// privacy besides the noise itself: the (ε, δ) budget type and its
// validation, the Gaussian calibrations (classical, analytic and the
// inverse that reads ε off a fixed σ), and the exponential mechanism
// Phase 1 cuts with. The Phase-2 noise mechanisms — scale formulas and
// draws — live in internal/core (core.Noise), the one copy every binary
// runs.
//
// All randomness flows through internal/rng so experiments are exactly
// reproducible under a fixed seed; budget accounting is the caller's
// responsibility (see internal/accountant).
package dp

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by parameter validation across the package.
var (
	ErrEpsilon     = errors.New("dp: epsilon must be > 0 and finite")
	ErrDelta       = errors.New("dp: delta must be in [0, 1)")
	ErrDeltaZero   = errors.New("dp: this mechanism requires delta > 0")
	ErrSensitivity = errors.New("dp: sensitivity must be > 0 and finite")
	ErrNilSource   = errors.New("dp: a non-nil rng source is required")
	ErrEmptyDomain = errors.New("dp: candidate domain must be non-empty")
)

// Params carries an (ε, δ) differential-privacy budget. δ = 0 denotes pure
// ε-DP. Every HTTP body carrying a budget or a cost encodes it as
// {"epsilon","delta"}.
type Params struct {
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
}

// Validate checks that the parameters describe a meaningful guarantee.
func (p Params) Validate() error {
	if !(p.Epsilon > 0) || math.IsInf(p.Epsilon, 0) || math.IsNaN(p.Epsilon) {
		return fmt.Errorf("%w (got %v)", ErrEpsilon, p.Epsilon)
	}
	if p.Delta < 0 || p.Delta >= 1 || math.IsNaN(p.Delta) {
		return fmt.Errorf("%w (got %v)", ErrDelta, p.Delta)
	}
	return nil
}

// Pure reports whether the budget is pure ε-DP (δ = 0).
func (p Params) Pure() bool { return p.Delta == 0 }

// String renders the budget as "(ε=…, δ=…)".
func (p Params) String() string {
	if p.Pure() {
		return fmt.Sprintf("(ε=%g)", p.Epsilon)
	}
	return fmt.Sprintf("(ε=%g, δ=%g)", p.Epsilon, p.Delta)
}

// validateSensitivity rejects non-positive or non-finite sensitivities.
func validateSensitivity(s float64) error {
	if !(s > 0) || math.IsInf(s, 0) || math.IsNaN(s) {
		return fmt.Errorf("%w (got %v)", ErrSensitivity, s)
	}
	return nil
}

// phi is the standard normal CDF.
func phi(t float64) float64 {
	return 0.5 * math.Erfc(-t/math.Sqrt2)
}
