package release

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/hierarchy"
	"repro/internal/partition"
	"repro/internal/rng"
)

// TestEngineSigmaNeedsGaussian: an externally calibrated σ is a Gaussian
// scale, so both σ entry points refuse a pure-ε engine rather than draw
// Gaussian noise the engine's mechanism never promised.
func TestEngineSigmaNeedsGaussian(t *testing.T) {
	t.Parallel()
	tree, err := hierarchy.Build(testGraph(t), hierarchy.Options{Rounds: 4, Bisector: partition.BalancedBisector{}})
	if err != nil {
		t.Fatal(err)
	}
	advertised := dp.Params{Epsilon: 0.3, Delta: 1e-6}
	for _, mech := range []core.NoiseMechanism{core.MechGaussian, core.MechLaplace, core.MechGeometric} {
		eng, err := NewEngine(core.ModelCells, core.CalibrationClassical, mech)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.SetCellMechanism(mech); err != nil {
			t.Fatal(err)
		}
		count, countErr := eng.CountSigma(tree, 2, 3.5, advertised, rng.New(1))
		cells, cellsErr := eng.CellsSigma(tree, 2, 3.5, advertised, rng.New(1))
		if mech != core.MechGaussian {
			if !errors.Is(countErr, core.ErrBadMechanism) {
				t.Errorf("%v engine: CountSigma = %v, want core.ErrBadMechanism", mech, countErr)
			}
			if !errors.Is(cellsErr, core.ErrBadMechanism) {
				t.Errorf("%v engine: CellsSigma = %v, want core.ErrBadMechanism", mech, cellsErr)
			}
			continue
		}
		if countErr != nil || cellsErr != nil {
			t.Fatalf("gaussian engine: CountSigma = %v, CellsSigma = %v", countErr, cellsErr)
		}
		if count.Sigma != 3.5 || count.CalibName != "rdp" || count.MechName != "gaussian" || count.Epsilon != advertised.Epsilon {
			t.Errorf("sigma count = %+v", count)
		}
		if cells.Sigma != 3.5 || cells.CalibName != "rdp" || cells.MechName != "" || cells.Delta != advertised.Delta {
			t.Errorf("sigma cells labels = σ %v, %q, %q, δ %v", cells.Sigma, cells.CalibName, cells.MechName, cells.Delta)
		}
	}
}
