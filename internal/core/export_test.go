package core

// Internals for the external tests of this package (marginal_test.go
// compares against query, which imports core).
var (
	NoisyCells    = noisyCells
	NoisyMarginal = noisyMarginal
	DeepTree      = deepTree
	EmptyTree     = emptyTree
)

const MaxFastRoundSigma = maxFastRoundSigma
