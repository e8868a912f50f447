package dpcheck

import (
	"testing"

	"repro/internal/release"
)

// TestRegisteredStrategiesNoiseWithinBudget audits every registered
// release strategy's mechanism at both Phase-2 stages through the kernel
// that serves them: core.ReleaseCount and core.ReleaseCells (the chunked
// fill every mechanism shares), each against its release shifted by the
// level's sensitivity, must show empirical privacy loss at or below the
// claimed ε. This is the gate that keeps a newly registered strategy —
// or a change to the kernel's scale or sampler — from shipping an
// under-noised mechanism.
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
			auditMechanism(t, tree, strat.Mech, countStage)
			auditMechanism(t, tree, strat.Mech, cellStage)
		})
	}
}
