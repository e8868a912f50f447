package core

import (
	"fmt"
	"math"

	"repro/internal/dp"
	"repro/internal/hierarchy"
	"repro/internal/rng"
)

// NoiseMechanism selects the Phase-2 noise distribution.
type NoiseMechanism int

// Mechanisms. MechGaussian is the paper's choice ((εg, δ)-group-DP).
// MechLaplace and MechGeometric provide *pure* εg-group DP (δ = 0) as an
// extension; the geometric mechanism additionally keeps released counts
// integral. Ablation A7 compares all three.
const (
	MechGaussian NoiseMechanism = iota + 1
	MechLaplace
	MechGeometric
)

// String implements fmt.Stringer.
func (m NoiseMechanism) String() string {
	switch m {
	case MechGaussian:
		return "gaussian"
	case MechLaplace:
		return "laplace"
	case MechGeometric:
		return "geometric"
	default:
		return fmt.Sprintf("NoiseMechanism(%d)", int(m))
	}
}

// Valid reports whether m is a known mechanism.
func (m NoiseMechanism) Valid() bool {
	return m == MechGaussian || m == MechLaplace || m == MechGeometric
}

// ErrBadMechanism reports an unknown noise mechanism, or an externally
// calibrated σ paired with a mechanism other than Gaussian.
var ErrBadMechanism = fmt.Errorf("core: unknown noise mechanism")

// Noise says how one Phase-2 release is perturbed. The scale comes from
// one of two places:
//
//   - calibrated (External false): Budget is the (εg, δ) the release
//     consumes. Gaussian noise derives σ from it and the level's
//     sensitivity Δℓ through Calib; Laplace and geometric noise ignore
//     Calib and δ and deliver pure εg-group DP at L1 sensitivity Δℓ.
//   - external (External true): Sigma is a Gaussian scale calibrated
//     elsewhere — an RDP accountant governing the global budget rather
//     than a per-query (ε, δ) split — and Budget only advertises the
//     per-release budget that scale implies (dp.GaussianEpsilon). σ = 0
//     is a legal external scale (an empty level needs no noise), which is
//     why External is a flag and not "Sigma > 0".
type Noise struct {
	Mech     NoiseMechanism
	Calib    Calibration
	Budget   dp.Params
	External bool
	Sigma    float64
}

// Validate reports whether the spec can perturb a release at all: it
// resolves the scale at unit sensitivity, so an unknown mechanism or
// calibration, an external σ on a non-Gaussian mechanism, and a budget
// the calibration cannot turn into a scale (δ = 0 or classical εg ≥ 1
// under Gaussian noise) all fail here rather than at the first release.
func (n Noise) Validate() error {
	_, err := n.scale(1)
	return err
}

// noiseScale is a Noise resolved against one sensitivity.
type noiseScale struct {
	mech NoiseMechanism
	sens int64
	// sigma is the reported standard deviation: the Gaussian σ, b√2 for
	// Laplace(b), the two-sided geometric's stddev — what downstream
	// variance weighting reads. Zero means nothing is drawn.
	sigma float64
	// param is what the sampler takes: σ, the Laplace b, the geometric α.
	param float64
	// expAbs is E|noise|.
	expAbs float64
	// calib, calibName and delta label the release; a pure mechanism
	// reports δ = 0 whatever the budget carried.
	calib     Calibration
	calibName string
	delta     float64
}

// scale resolves the spec at one sensitivity — the single place where
// the spec is validated and a mechanism turns (budget, Δℓ) into a noise
// scale. A zero sensitivity (empty level) resolves to no noise, except
// under an external σ, which is used as given.
func (n Noise) scale(sens int64) (noiseScale, error) {
	s := noiseScale{mech: n.Mech, sens: sens, delta: n.Budget.Delta}
	if !n.Mech.Valid() {
		return s, fmt.Errorf("%w: %d", ErrBadMechanism, int(n.Mech))
	}
	if n.External {
		if n.Mech != MechGaussian {
			return s, fmt.Errorf("%w: an externally calibrated sigma needs the gaussian mechanism, have %s", ErrBadMechanism, n.Mech)
		}
		if !(n.Sigma >= 0) || math.IsInf(n.Sigma, 0) {
			return s, fmt.Errorf("core: invalid sigma %v", n.Sigma)
		}
	} else if err := n.Budget.Validate(); err != nil {
		return s, err
	}
	switch n.Mech {
	case MechGaussian:
		if n.External {
			s.sigma, s.calibName = n.Sigma, "rdp"
		} else {
			sigma, err := Sigma(n.Budget, sens, n.Calib)
			if err != nil {
				return s, err
			}
			s.sigma, s.calib, s.calibName = sigma, n.Calib, n.Calib.String()
		}
		s.param, s.expAbs = s.sigma, s.sigma*math.Sqrt(2/math.Pi)
	case MechLaplace:
		s.calibName, s.delta = "pure", 0
		if sens > 0 {
			b := float64(sens) / n.Budget.Epsilon
			s.sigma, s.param, s.expAbs = b*math.Sqrt2, b, b
		}
	case MechGeometric:
		s.calibName, s.delta = "pure", 0
		if sens > 0 {
			alpha := math.Exp(-n.Budget.Epsilon / float64(sens))
			s.sigma, s.param, s.expAbs = math.Sqrt(2*alpha)/(1-alpha), alpha, 2*alpha/(1-alpha*alpha)
		}
	}
	return s, nil
}

// resolve is the step every Phase-2 entry point starts with: the
// preconditions, the level's sensitivity under the group model, and the
// spec's scale at that sensitivity. needSrc is false only for the
// closed-form ExpectedRER, which draws nothing.
func (n Noise) resolve(t *hierarchy.Tree, level int, model GroupModel, src *rng.Source, needSrc bool) (noiseScale, error) {
	if t == nil {
		return noiseScale{}, ErrNilTree
	}
	if needSrc && src == nil {
		return noiseScale{}, dp.ErrNilSource
	}
	sens, err := Sensitivity(t, level, model)
	if err != nil {
		return noiseScale{}, err
	}
	return n.scale(sens)
}

// draw samples one noise variate at the resolved scale; σ = 0 draws
// nothing. The Gaussian scalar goes through the same batched ziggurat
// sampler the histogram fill uses (a one-element fill), so every
// Gaussian release shares one noise source.
func (s *noiseScale) draw(src *rng.Source) float64 {
	switch {
	case s.sigma <= 0:
		return 0
	case s.mech == MechLaplace:
		return src.Laplace(s.param)
	case s.mech == MechGeometric:
		return float64(src.TwoSidedGeometric(s.param))
	default:
		var noise [1]float64
		src.NormalsSigma(noise[:], s.param)
		return noise[0]
	}
}
