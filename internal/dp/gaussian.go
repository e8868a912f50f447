package dp

import (
	"errors"
	"fmt"
	"math"
)

// ErrClassicalEpsilonRange reports an ε for which the classical Gaussian
// calibration is not valid.
var ErrClassicalEpsilonRange = errors.New(
	"dp: classical gaussian calibration requires epsilon < 1 (use the analytic calibration)")

// ClassicalGaussianSigma returns the Dwork–Roth σ for (ε, δ) and Δ2,
// σ = Δ2·√(2 ln(1.25/δ))/ε, valid for ε < 1 — the calibration the paper
// cites ([3]).
func ClassicalGaussianSigma(p Params, l2Sensitivity float64) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if p.Delta == 0 {
		return 0, ErrDeltaZero
	}
	if p.Epsilon >= 1 {
		return 0, fmt.Errorf("%w (got ε=%v)", ErrClassicalEpsilonRange, p.Epsilon)
	}
	if err := validateSensitivity(l2Sensitivity); err != nil {
		return 0, err
	}
	return l2Sensitivity * math.Sqrt(2*math.Log(1.25/p.Delta)) / p.Epsilon, nil
}

// AnalyticGaussianSigma returns the smallest σ for which the Gaussian
// mechanism with L2 sensitivity Δ2 satisfies (ε, δ)-DP, per the exact
// characterization of Balle & Wang (ICML 2018, Theorem 8), valid for every
// ε > 0 and strictly tighter than the classical bound (ablation A2):
//
//	δ(σ) = Φ(Δ/(2σ) − εσ/Δ) − e^ε · Φ(−Δ/(2σ) − εσ/Δ)
//
// δ(σ) is strictly decreasing in σ, so the calibration is a bisection.
func AnalyticGaussianSigma(p Params, l2Sensitivity float64) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if p.Delta == 0 {
		return 0, ErrDeltaZero
	}
	if err := validateSensitivity(l2Sensitivity); err != nil {
		return 0, err
	}
	deltaFor := func(sigma float64) float64 {
		return gaussianDelta(p.Epsilon, l2Sensitivity, sigma)
	}
	// Bracket the answer. The classical σ (when defined) is an upper
	// bound; otherwise grow until δ(σ) ≤ δ.
	lo := l2Sensitivity * 1e-6
	hi := l2Sensitivity
	for deltaFor(hi) > p.Delta {
		hi *= 2
		if math.IsInf(hi, 1) {
			return 0, fmt.Errorf("dp: analytic gaussian calibration failed to bracket for %v", p)
		}
	}
	for deltaFor(lo) <= p.Delta {
		lo /= 2
		if lo < math.SmallestNonzeroFloat64*1e6 {
			// Even (near) zero noise satisfies the guarantee; return hi's
			// bisection against this tiny lo below.
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if deltaFor(mid) > p.Delta {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}

// gaussianDelta returns the tightest δ for which N(0, σ²) noise gives
// (ε, δ)-DP at L2 sensitivity Δ.
func gaussianDelta(epsilon, sensitivity, sigma float64) float64 {
	a := sensitivity / (2 * sigma)
	b := epsilon * sigma / sensitivity
	return phi(a-b) - math.Exp(epsilon)*phi(-a-b)
}

// GaussianEpsilon inverts the analytic Gaussian characterization in the
// other direction: the smallest ε for which N(0, σ²) noise at L2
// sensitivity Δ satisfies (ε, δ)-DP. Used to report honest per-release
// budgets when the noise scale was fixed externally (e.g. by an RDP
// accountant).
func GaussianEpsilon(sigma, l2Sensitivity, delta float64) (float64, error) {
	if !(sigma > 0) || math.IsInf(sigma, 0) || math.IsNaN(sigma) {
		return 0, fmt.Errorf("dp: sigma must be > 0 and finite (got %v)", sigma)
	}
	if err := validateSensitivity(l2Sensitivity); err != nil {
		return 0, err
	}
	if !(delta > 0 && delta < 1) {
		return 0, fmt.Errorf("%w (got %v)", ErrDelta, delta)
	}
	// gaussianDelta is decreasing in ε; bisect.
	lo, hi := 0.0, 1.0
	for gaussianDelta(hi, l2Sensitivity, sigma) > delta {
		hi *= 2
		if hi > 1e9 {
			return 0, fmt.Errorf("dp: gaussian epsilon did not bracket (σ=%v, Δ=%v, δ=%v)", sigma, l2Sensitivity, delta)
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if gaussianDelta(mid, l2Sensitivity, sigma) > delta {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}
