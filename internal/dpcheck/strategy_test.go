package dpcheck

import (
	"testing"

	"repro/internal/release"
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
