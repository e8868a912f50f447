package core

import (
	"slices"

	"repro/internal/bipartite"
	"repro/internal/rng"
)

// Internals for the external tests of this package (marginal_test.go
// compares against query, which imports core).
var (
	DeepTree  = deepTree
	EmptyTree = emptyTree
)

const MaxFastRoundSigma = maxFastRoundSigma

// NoisyCells and NoisyMarginal run the kernels over a level's counts
// with the rounding ReleaseCells and ReleaseMarginal choose for them:
// roundFastExact at the largest count.
func NoisyCells(buf []float64, counts []int64, mech NoiseMechanism, param float64, src *rng.Source, workers int) []float64 {
	return noisyCells(buf, counts, roundFastExact(mech, param, slices.Max(counts)), mech, param, src, workers)
}

func NoisyMarginal(m *MarginalRelease, counts []int64, k int, side bipartite.Side, mech NoiseMechanism, param float64, src *rng.Source) {
	noisyMarginal(m, counts, roundFastExact(mech, param, slices.Max(counts)), k, side, mech, param, src)
}
