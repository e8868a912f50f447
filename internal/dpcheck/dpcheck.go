// Package dpcheck empirically verifies differential-privacy guarantees.
//
// Given a randomized mechanism evaluated on two adjacent inputs (record-
// adjacent for classical DP, group-adjacent for the paper's g-group DP),
// it estimates the privacy loss from output histograms: the largest
// |ln(P̂[A(D1)∈bin] / P̂[A(D2)∈bin])| over bins with enough mass to be
// statistically meaningful. A mechanism claiming ε-DP must produce an
// estimate at or below ε (up to sampling error and, for (ε, δ) mechanisms,
// the δ-mass tails that the MinBinCount threshold excludes).
//
// This is a lightweight relative of privacy auditors such as DP-Sniper:
// it cannot prove a guarantee, but it catches calibration bugs. The
// package's tests drive it with the release kernel that ships
// (core.ReleaseCount, core.ReleaseCells) against the same release shifted
// by the level's sensitivity. For the pure-ε families, whose loss is
// tight at ε in the bulk, a scale a third too small fails them; the
// classical Gaussian calibration keeps its bulk loss near ε/2, so only a
// σ about three times too small does.
package dpcheck

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rng"
)

// MechanismFunc draws one output of a randomized mechanism run on one
// fixed input. The source provides all randomness.
type MechanismFunc func(src *rng.Source) float64

// Config tunes the estimator.
type Config struct {
	// Samples is the number of draws per input. Default 200000.
	Samples int
	// Bins is the histogram resolution over the combined output range.
	// Default 40.
	Bins int
	// MinBinCount excludes bins where either side has fewer samples;
	// rare bins have unreliable ratios (and for (ε, δ)-DP they are the
	// δ mass). Default Samples/200.
	MinBinCount int
	// Seed drives the deterministic sampling.
	Seed uint64
}

func (c *Config) fill() {
	if c.Samples <= 0 {
		c.Samples = 200000
	}
	if c.Bins <= 0 {
		c.Bins = 40
	}
	if c.MinBinCount <= 0 {
		c.MinBinCount = c.Samples / 200
	}
}

// Result is the empirical privacy-loss estimate.
type Result struct {
	// EpsilonHat is the largest absolute log-likelihood ratio observed
	// across qualifying bins.
	EpsilonHat float64 `json:"epsilon_hat"`
	// BinsUsed and BinsSkipped count qualifying and excluded bins.
	BinsUsed    int `json:"bins_used"`
	BinsSkipped int `json:"bins_skipped"`
	// WorstRatio is e^EpsilonHat, for readability.
	WorstRatio float64 `json:"worst_ratio"`
}

// Errors returned by the estimators.
var (
	ErrNilMechanism = errors.New("dpcheck: nil mechanism")
	ErrNoBins       = errors.New("dpcheck: no bin had enough samples on both sides")
)

// EstimateEpsilon estimates the privacy loss between mechanism runs on
// two adjacent inputs.
func EstimateEpsilon(onD1, onD2 MechanismFunc, cfg Config) (Result, error) {
	if onD1 == nil || onD2 == nil {
		return Result{}, ErrNilMechanism
	}
	cfg.fill()
	src := rng.New(cfg.Seed)
	src1 := src.Split(1)
	src2 := src.Split(2)

	s1 := make([]float64, cfg.Samples)
	s2 := make([]float64, cfg.Samples)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < cfg.Samples; i++ {
		s1[i] = onD1(src1)
		s2[i] = onD2(src2)
		lo = math.Min(lo, math.Min(s1[i], s2[i]))
		hi = math.Max(hi, math.Max(s1[i], s2[i]))
	}
	if !(hi > lo) {
		// Degenerate (constant) outputs: identical distributions.
		if s1[0] == s2[0] {
			return Result{EpsilonHat: 0, BinsUsed: 1, WorstRatio: 1}, nil
		}
		return Result{}, fmt.Errorf("%w: outputs are disjoint constants", ErrNoBins)
	}

	h1 := make([]int, cfg.Bins)
	h2 := make([]int, cfg.Bins)
	width := (hi - lo) / float64(cfg.Bins)
	binOf := func(v float64) int {
		b := int((v - lo) / width)
		if b >= cfg.Bins {
			b = cfg.Bins - 1
		}
		if b < 0 {
			b = 0
		}
		return b
	}
	for i := 0; i < cfg.Samples; i++ {
		h1[binOf(s1[i])]++
		h2[binOf(s2[i])]++
	}
	return ratioScan(h1, h2, cfg)
}

// DiscreteMechanismFunc draws one integer output.
type DiscreteMechanismFunc func(src *rng.Source) int64

// EstimateEpsilonDiscrete estimates the privacy loss of an integer-valued
// mechanism, binning by exact output value.
func EstimateEpsilonDiscrete(onD1, onD2 DiscreteMechanismFunc, cfg Config) (Result, error) {
	if onD1 == nil || onD2 == nil {
		return Result{}, ErrNilMechanism
	}
	cfg.fill()
	src := rng.New(cfg.Seed)
	src1 := src.Split(1)
	src2 := src.Split(2)
	h1 := map[int64]int{}
	h2 := map[int64]int{}
	for i := 0; i < cfg.Samples; i++ {
		h1[onD1(src1)]++
		h2[onD2(src2)]++
	}
	var used, skipped int
	var worst float64
	for v, c1 := range h1 {
		c2 := h2[v]
		if c1 < cfg.MinBinCount || c2 < cfg.MinBinCount {
			skipped++
			continue
		}
		used++
		if r := math.Abs(math.Log(float64(c1) / float64(c2))); r > worst {
			worst = r
		}
	}
	for v := range h2 {
		if _, ok := h1[v]; !ok {
			skipped++
		}
	}
	if used == 0 {
		return Result{}, ErrNoBins
	}
	return Result{EpsilonHat: worst, BinsUsed: used, BinsSkipped: skipped, WorstRatio: math.Exp(worst)}, nil
}

func ratioScan(h1, h2 []int, cfg Config) (Result, error) {
	var used, skipped int
	var worst float64
	for i := range h1 {
		if h1[i] < cfg.MinBinCount || h2[i] < cfg.MinBinCount {
			if h1[i] > 0 || h2[i] > 0 {
				skipped++
			}
			continue
		}
		used++
		if r := math.Abs(math.Log(float64(h1[i]) / float64(h2[i]))); r > worst {
			worst = r
		}
	}
	if used == 0 {
		return Result{}, ErrNoBins
	}
	return Result{EpsilonHat: worst, BinsUsed: used, BinsSkipped: skipped, WorstRatio: math.Exp(worst)}, nil
}
