package repro_test

import (
	"bytes"
	"math"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/dp"
)

// TestEndToEndCuratorConsumerFlow exercises the complete curator→consumer
// path across every module: synthetic data, private specialization, noisy
// multi-level release with histograms, JSON publication, consumer-side
// load, and downstream analytics.
func TestEndToEndCuratorConsumerFlow(t *testing.T) {
	t.Parallel()
	g, err := repro.GenerateDataset(repro.PresetDBLPTiny, 77)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := repro.NewPipeline(repro.Params{Epsilon: 0.9, Delta: 1e-5},
		repro.WithRounds(6),
		repro.WithPhase1Epsilon(0.1),
		repro.WithCellHistograms(true),
		repro.WithWorkers(4),
		repro.WithSeed(31),
	)
	if err != nil {
		t.Fatal(err)
	}
	curator, err := pipe.Run(g)
	if err != nil {
		t.Fatal(err)
	}

	var published bytes.Buffer
	if err := curator.WriteJSON(&published, false); err != nil {
		t.Fatal(err)
	}
	artifact, err := repro.ReadRelease(&published)
	if err != nil {
		t.Fatal(err)
	}

	// Consumer checks the privacy claims.
	if artifact.BudgetEpsilon != 0.9 || artifact.ModeName != "per-level" {
		t.Errorf("artifact claims = %v / %s", artifact.BudgetEpsilon, artifact.ModeName)
	}
	lvl := artifact.Counts.Levels[len(artifact.Counts.Levels)-1].Level
	// Downstream analytics from noisy data alone.
	view, err := artifact.ViewFor(lvl)
	if err != nil {
		t.Fatal(err)
	}
	if view.Cells == nil {
		t.Fatal("view missing histogram")
	}
	marginals, err := repro.MarginalCounts(*view.Cells, repro.Left)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, m := range marginals {
		total += m
	}
	// Marginal total equals the histogram total exactly (both are sums
	// of the same noisy cells).
	if math.Abs(total-view.Cells.SumCells()) > 1e-6 {
		t.Errorf("marginal total %v != cell total %v", total, view.Cells.SumCells())
	}
	if _, err := repro.TopKGroups(*view.Cells, repro.Right, 2); err != nil {
		t.Fatal(err)
	}
}

// TestAllModesProduceValidArtifacts runs every budget mode and checks the
// published JSON passes consumer-side validation.
func TestAllModesProduceValidArtifacts(t *testing.T) {
	t.Parallel()
	g, err := repro.GenerateDataset(repro.PresetDBLPTiny, 3)
	if err != nil {
		t.Fatal(err)
	}
	modes := []repro.Mode{
		repro.ModePerLevel,
		repro.ModeComposedBasic,
		repro.ModeComposedAdvanced,
		repro.ModeComposedRDP,
	}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			pipe, err := repro.NewPipeline(repro.Params{Epsilon: 0.8, Delta: 1e-5},
				repro.WithRounds(5), repro.WithMode(mode), repro.WithSeed(9))
			if err != nil {
				t.Fatal(err)
			}
			rel, err := pipe.Run(g)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := rel.WriteJSON(&buf, false); err != nil {
				t.Fatal(err)
			}
			if _, err := repro.ReadRelease(&buf); err != nil {
				t.Fatalf("mode %v artifact invalid: %v", mode, err)
			}
		})
	}
}

// TestMechanismsProduceValidArtifacts covers every noise mechanism end to
// end, each through its quadtree-<mech> release strategy.
func TestMechanismsProduceValidArtifacts(t *testing.T) {
	t.Parallel()
	g, err := repro.GenerateDataset(repro.PresetDBLPTiny, 4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		budget repro.Params
		mech   repro.NoiseMechanism
	}{
		{name: "gaussian", budget: repro.Params{Epsilon: 0.8, Delta: 1e-5}, mech: repro.MechGaussian},
		{name: "laplace pure", budget: repro.Params{Epsilon: 2}, mech: repro.MechLaplace},
		{name: "geometric pure", budget: repro.Params{Epsilon: 0.8}, mech: repro.MechGeometric},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			pipe, err := repro.NewPipeline(tc.budget,
				repro.WithRounds(5), repro.WithStrategy("quadtree-"+tc.mech.String()), repro.WithSeed(10))
			if err != nil {
				t.Fatal(err)
			}
			rel, err := pipe.Run(g)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := rel.WriteJSON(&buf, false); err != nil {
				t.Fatal(err)
			}
			if _, err := repro.ReadRelease(&buf); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFigureShapeInvariants asserts, deterministically via expected RER,
// the two monotonicity properties Figure 1's story depends on: error
// falls with εg and rises with level.
func TestFigureShapeInvariants(t *testing.T) {
	t.Parallel()
	g, err := repro.GenerateDataset(repro.PresetDBLPTiny, 5)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := repro.NewPipeline(repro.Params{Epsilon: 0.5, Delta: 1e-5},
		repro.WithRounds(6), repro.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := pipe.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	tree := rel.Tree()
	grid := []float64{0.1, 0.3, 0.5, 0.7, 0.999}
	levels := []int{0, 1, 2, 3, 4}
	prevByLevel := make([]float64, len(levels))
	for i := range prevByLevel {
		prevByLevel[i] = math.Inf(1)
	}
	for _, eps := range grid {
		var prevLevelRER float64 = -1
		for li, lvl := range levels {
			exp, err := core.ExpectedRER(tree, lvl, core.ModelCells,
				classicalNoise(dp.Params{Epsilon: eps, Delta: 1e-5}))
			if err != nil {
				t.Fatal(err)
			}
			if exp > prevByLevel[li] {
				t.Errorf("level %d: RER rose with eps at %v", lvl, eps)
			}
			prevByLevel[li] = exp
			if exp < prevLevelRER {
				t.Errorf("eps %v: RER fell from level %d to %d", eps, lvl-1, lvl)
			}
			prevLevelRER = exp
		}
	}
}
