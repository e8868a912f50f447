package dpcheck

import (
	"fmt"
	"testing"

	"repro/internal/release"
	"repro/internal/rng"
)

// TestRegisteredStrategiesNoiseWithinBudget audits every registered
// release strategy's Phase-2 stages through the kernel that serves them:
// the count mechanism through core.ReleaseCount and the cell mechanism
// through core.ReleaseCells (the chunked ziggurat fill for Gaussian, the
// serial per-cell draw for the pure-ε families), each against its release
// shifted by the level's sensitivity, must show empirical privacy loss at
// or below the claimed ε. This is the gate that keeps a newly registered
// composition — or a change to the kernel's scale or sampler — from
// shipping an under-noised mechanism.
func TestRegisteredStrategiesNoiseWithinBudget(t *testing.T) {
	t.Parallel()
	tree := uniformTree(t)
	for _, name := range release.Strategies.Names() {
		name := name
		strat, err := release.Strategies.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			auditMechanism(t, tree, strat.Noise.Count, countStage)
			auditMechanism(t, tree, strat.Noise.Cells, cellStage)
		})
	}
}

// TestCommunityRandomizedResponseWithinBudget audits the community
// partitioner's k-ary randomized response through the exported
// production draw: two adjacent inputs are the same node with true
// community 0 vs 1; the released assignment's worst-case likelihood
// ratio must sit at e^ε (the mechanism is tight) and never above.
func TestCommunityRandomizedResponseWithinBudget(t *testing.T) {
	t.Parallel()
	const k = 8
	for _, eps := range []float64{0.5, 1, 2} {
		eps := eps
		t.Run(fmt.Sprintf("eps=%v", eps), func(t *testing.T) {
			t.Parallel()
			mk := func(rank uint32) DiscreteMechanismFunc {
				return func(src *rng.Source) int64 {
					return int64(release.RandomizedRank(rank, k, eps, src))
				}
			}
			res, err := EstimateEpsilonDiscrete(mk(0), mk(1), Config{Seed: 61})
			if err != nil {
				t.Fatal(err)
			}
			if res.EpsilonHat > eps*1.25 {
				t.Errorf("k-RR empirical loss %v exceeds ε=%v", res.EpsilonHat, eps)
			}
			if res.EpsilonHat < eps*0.5 {
				t.Errorf("k-RR empirical loss %v implausibly low (claimed tight ε=%v)", res.EpsilonHat, eps)
			}
		})
	}
}

// TestCommunityRandomizedResponseDegenerate pins the K ≤ 1 edge: a
// single-community side is released unchanged without consuming
// randomness (no privacy is spent on a constant).
func TestCommunityRandomizedResponseDegenerate(t *testing.T) {
	t.Parallel()
	src := rng.New(1)
	before := src.Uint64()
	src = rng.New(1)
	if got := release.RandomizedRank(0, 1, 0.5, src); got != 0 {
		t.Errorf("k=1 rank = %d, want 0", got)
	}
	if src.Uint64() != before {
		t.Error("k=1 draw consumed randomness")
	}
}
